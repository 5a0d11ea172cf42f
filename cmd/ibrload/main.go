// Command ibrload drives an ibrd server from many pipelined connections
// and reports throughput and latency quantiles; any protocol error exits
// non-zero. The load loop is harness.Load, the same one cmd/ibrd's
// end-to-end test drives.
//
//	ibrload -addr 127.0.0.1:4100 -c 8 -p 4 -i 2
//
// opens 8 connections with 4 closed-loop issuers each (pipeline depth 4
// per connection, 32 outstanding requests overall) for 2 seconds and
// prints Mops/s plus separate read (GET), write (PUT/DEL), range (RANGE)
// and rmw p50/p95/p99 lines from the merged per-issuer histograms.
//
// Workload modes:
//
//	write — 50/50 PUT/DEL over uniform keys (the default)
//	read  — 90% GET, 5% PUT, 5% DEL over uniform keys
//	zipf  — the read mix over a Zipfian key distribution (-zipf-s), the
//	        hot-key shape: a handful of keys absorb most operations
//	rmw   — read-modify-write: GET, then DEL+PUT of value+1, measured as
//	        one composite operation
//	range — 1-in-8 RANGE scans of -span keys (each executed inside one
//	        reservation interval per shard: the paper's long-running
//	        read), the rest 50/50 PUT/DEL — long scans vs writers
//
// -ttl arms every PUT with a server-side expiry, so TTL-driven
// retirements compete with the workload's deletes.
//
// Every measured request carries a unique causal trace ID on the wire
// (issuer slot in the high half, per-issuer sequence in the low), and the
// exit summary names the slowest request of each one-second window by its
// trace ID — look it up in a /debug/trace capture to see what the server's
// reclamation machinery was doing while that request executed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ibr/internal/harness"
	"ibr/internal/obs"
	"ibr/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4100", "ibrd server address")
		conns    = flag.Int("c", 8, "client connections")
		pipeline = flag.Int("p", 4, "concurrent issuers per connection (pipeline depth)")
		seconds  = flag.Float64("i", 2.0, "measured run time in seconds")
		mode     = flag.String("m", "write", "workload mode: write, read, zipf, rmw, range")
		keyRange = flag.Uint64("range", 65536, "key range")
		prefill  = flag.Float64("prefill", 0.5, "fraction of the key range PUT before timing")
		seed     = flag.Int64("seed", 1, "workload RNG seed")

		ttl   = flag.Duration("ttl", 0, "TTL armed on every PUT (0 = no expiry)")
		span  = flag.Uint64("span", 1024, "keys covered by each RANGE scan (range mode)")
		zipfS = flag.Float64("zipf-s", 1.07, "Zipf skew parameter s > 1 (zipf mode)")

		timeout   = flag.Duration("timeout", 2*time.Second, "per-operation deadline (0 disables)")
		retries   = flag.Int("retries", 4, "attempts per operation against BUSY responses")
		retryBase = flag.Duration("retry-base", time.Millisecond, "initial retry backoff (pre-jitter)")
		retryMax  = flag.Duration("retry-max", 50*time.Millisecond, "retry backoff cap (pre-jitter)")
	)
	flag.Parse()
	cfg := harness.LoadConfig{
		Addr: *addr, Conns: *conns, Pipeline: *pipeline,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Mode:     *mode, KeyRange: *keyRange, Prefill: *prefill, Seed: *seed,
		TTL: *ttl, Span: *span, ZipfS: *zipfS, Timeout: *timeout,
		Retry: server.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase, MaxDelay: *retryMax},
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ibrload:", err)
		os.Exit(2)
	}
	total, err := harness.Load(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibrload:", err)
		os.Exit(1)
	}

	ops := total.Ops()
	attempts := ops + total.Shed + total.Timeouts
	elapsed := total.Elapsed
	fmt.Printf("ibrload: %d conns × %d pipeline, %s mode, %v\n", *conns, *pipeline, *mode, elapsed.Round(time.Millisecond))
	fmt.Printf("  %d ops, %.4f Mops/s (ok %d, not-found %d, exists %d, busy %d)\n",
		ops, float64(ops)/elapsed.Seconds()/1e6, total.OK, total.NotFound, total.Exists, total.Busy)
	if attempts > 0 {
		fmt.Printf("  overload: shed %d (%.2f%%), timeouts %d (%.2f%%), busy retries %d (%.4f/op)\n",
			total.Shed, 100*float64(total.Shed)/float64(attempts),
			total.Timeouts, 100*float64(total.Timeouts)/float64(attempts),
			total.Retries, float64(total.Retries)/float64(attempts))
	}
	if total.RangeOps > 0 {
		fmt.Printf("  ranges: %d scans validated, %.1f pairs/scan mean (span %d)\n",
			total.RangeOps, float64(total.RangePairs)/float64(total.RangeOps), *span)
	}
	for _, c := range []struct {
		name string
		h    *obs.HistSnapshot
	}{
		{"read  (get)", &total.Read},
		{"write (put/del)", &total.Write},
		{"range (scan)", &total.Range},
		{"rmw (composite)", &total.RMW},
	} {
		if c.h.Count == 0 {
			continue
		}
		q := func(p float64) time.Duration { return time.Duration(c.h.Quantile(p)) }
		fmt.Printf("  latency %-15s: n=%d p50~%v p95~%v p99~%v\n", c.name, c.h.Count, q(0.50), q(0.95), q(0.99))
	}
	if len(total.Slowest) > 0 {
		fmt.Println("  slowest op per second (look the trace ID up on /debug/trace):")
		for w, s := range total.Slowest {
			if s.Lat == 0 {
				continue
			}
			fmt.Printf("    [%2ds] %-12v trace=0x%016x\n", w, s.Lat.Round(time.Microsecond), s.Trace)
		}
	}
	if total.Err != nil || total.ProtoErrs > 0 {
		fmt.Fprintf(os.Stderr, "ibrload: %d protocol errors, first transport error: %v\n", total.ProtoErrs, total.Err)
		os.Exit(1)
	}
}
