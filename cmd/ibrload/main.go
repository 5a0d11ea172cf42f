// Command ibrload drives an ibrd server from many pipelined connections
// and reports throughput and latency quantiles; it doubles as the serving
// layer's end-to-end smoke test (any protocol error exits non-zero).
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
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/harness"
	"ibr/internal/server"
)

var modes = map[string]bool{"write": true, "read": true, "zipf": true, "rmw": true, "range": true}

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
	if !modes[*mode] {
		fmt.Fprintf(os.Stderr, "ibrload: unknown mode %q; valid: write, read, zipf, rmw, range\n", *mode)
		os.Exit(2)
	}
	if *mode == "zipf" && *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "ibrload: -zipf-s must be > 1")
		os.Exit(2)
	}
	if *mode == "range" && *span == 0 {
		fmt.Fprintln(os.Stderr, "ibrload: -span must be positive in range mode")
		os.Exit(2)
	}
	policy := server.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase, MaxDelay: *retryMax}

	// WithRetry folds the busy-retry loop into the client itself: every
	// DoContext below retries BUSY under the policy with no per-call
	// ceremony, and exhaustion surfaces as an ErrBusy-wrapping error.
	clients := make([]*server.Client, *conns)
	for i := range clients {
		cl, err := server.Dial(*addr, server.WithRetry(policy))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibrload: dial %s: %v\n", *addr, err)
			os.Exit(1)
		}
		defer cl.Close()
		if err := cl.PingContext(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "ibrload:", err)
			os.Exit(1)
		}
		clients[i] = cl
	}

	if *prefill > 0 {
		if err := doPrefill(clients[0], *keyRange, *prefill, *seed, *ttl); err != nil {
			fmt.Fprintln(os.Stderr, "ibrload: prefill:", err)
			os.Exit(1)
		}
	}

	// One issuer = one closed loop; pipelining comes from running p of
	// them per connection, so every connection keeps p requests in flight.
	// Reads (GET), writes (PUT/DEL), ranges (RANGE) and composite rmw go to
	// separate histograms: a write's retire/scan work and a range's
	// interval-length reservation ride their latency tails, so mixing the
	// classes hides exactly the effects the reclamation schemes differ in.
	// slowOp remembers the worst request of a one-second window and the
	// wire trace ID it carried.
	type slowOp struct {
		lat   time.Duration
		trace uint64
	}
	type issuerOut struct {
		readHist, writeHist  harness.LatencyHist
		rangeHist, rmwHist   harness.LatencyHist
		ok, notFound, exists uint64
		busy, protoErr       uint64
		shed, timeouts       uint64 // non-fatal: retries exhausted / deadline hit
		rangePairs, rangeOps uint64
		slow                 []slowOp
		err                  error
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		outs = make([]issuerOut, *conns**pipeline)
	)
	start := time.Now()
	for ci, cl := range clients {
		for p := 0; p < *pipeline; p++ {
			wg.Add(1)
			go func(cl *server.Client, slot int) {
				defer wg.Done()
				out := &outs[slot]
				rng := rand.New(rand.NewSource(*seed + int64(slot)*7919 + 1))
				var zipf *rand.Zipf
				if *mode == "zipf" {
					zipf = rand.NewZipf(rng, *zipfS, 1, *keyRange-1)
				}
				count := func(st server.Status) {
					switch st {
					case server.StatusOK:
						out.ok++
					case server.StatusNotFound:
						out.notFound++
					case server.StatusExists:
						out.exists++
					case server.StatusBusy:
						out.busy++
					default:
						out.protoErr++
					}
				}
				// fatal classifies one call's error: overload outcomes are
				// part of the measurement (a server shedding load answers
				// BUSY past the retry budget, and a deadline can expire
				// while backing off); only transport errors abort.
				fatal := func(err error) bool {
					switch {
					case errors.Is(err, server.ErrBusy):
						out.shed++
						return false
					case errors.Is(err, context.DeadlineExceeded):
						out.timeouts++
						return false
					default:
						out.err = err
						return true
					}
				}
				var seq uint64
				for !stop.Load() {
					key := rng.Uint64() % *keyRange
					// Trace IDs are slot<<32|seq: unique across the run,
					// and a hex ID read off the exit summary decodes by
					// eye back to which issuer sent it.
					seq++
					trace := uint64(slot+1)<<32 | seq
					ctx := server.WithTraceID(context.Background(), trace)
					var cancel context.CancelFunc
					if *timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, *timeout)
					}

					var (
						req  server.Request
						hist *harness.LatencyHist
					)
					switch *mode {
					case "write":
						req, hist = writeOp(rng, key, *ttl), &out.writeHist
					case "read", "zipf":
						if zipf != nil {
							key = zipf.Uint64()
						}
						switch r := rng.Intn(100); {
						case r < 90:
							req, hist = server.Request{Op: server.OpGet, Key: key}, &out.readHist
						case r < 95:
							req, hist = server.Request{Op: server.OpPut, Key: key, Val: key*2 + 1, TTL: *ttl}, &out.writeHist
						default:
							req, hist = server.Request{Op: server.OpDel, Key: key}, &out.writeHist
						}
					case "range":
						if rng.Intn(8) == 0 {
							hi := key + *span - 1
							if hi < key { // wrapped
								hi = ^uint64(0)
							}
							req = server.Request{Op: server.OpRange, Key: key, KeyHi: hi, TraceID: trace}
							hist = &out.rangeHist
						} else {
							req, hist = writeOp(rng, key, *ttl), &out.writeHist
						}
					case "rmw":
						// Composite: GET, then DEL+PUT of value+1, timed as
						// one operation. Put is insert-if-absent, so the
						// modify step is a delete-then-insert pair.
						t0 := time.Now()
						ok := func() bool {
							g, err := cl.DoContext(ctx, server.Request{Op: server.OpGet, Key: key, TraceID: trace})
							if err != nil {
								return !fatal(err)
							}
							newVal := uint64(1)
							if g.Status == server.StatusOK {
								newVal = g.Val + 1
								if _, err := cl.DoContext(ctx, server.Request{Op: server.OpDel, Key: key, TraceID: trace}); err != nil {
									return !fatal(err)
								}
							}
							p, err := cl.DoContext(ctx, server.Request{Op: server.OpPut, Key: key, Val: newVal, TTL: *ttl, TraceID: trace})
							if err != nil {
								return !fatal(err)
							}
							count(p.Status)
							out.rmwHist.Record(time.Since(t0))
							return true
						}()
						if cancel != nil {
							cancel()
						}
						if !ok && out.err != nil {
							return
						}
						continue
					}

					t0 := time.Now()
					resp, err := cl.DoContext(ctx, req)
					if cancel != nil {
						cancel()
					}
					if err != nil {
						if fatal(err) {
							return
						}
						continue
					}
					lat := time.Since(t0)
					hist.Record(lat)
					if req.Op == server.OpRange {
						if resp.Status == server.StatusUnsupported {
							out.err = fmt.Errorf("server structure does not support RANGE (run ibrd with -structure skiplist)")
							return
						}
						// Validate the scan: strictly ascending (sorted, no
						// duplicates) and inside the requested interval. A
						// violation means the fan-out merge or a shard leg is
						// broken — fail the whole run, loudly.
						for i, p := range resp.Pairs {
							if p.Key < req.Key || p.Key > req.KeyHi {
								out.err = fmt.Errorf("RANGE [%d,%d] returned out-of-bounds key %d", req.Key, req.KeyHi, p.Key)
								return
							}
							if i > 0 && p.Key <= resp.Pairs[i-1].Key {
								out.err = fmt.Errorf("RANGE [%d,%d] not strictly ascending at pair %d (%d after %d)", req.Key, req.KeyHi, i, p.Key, resp.Pairs[i-1].Key)
								return
							}
						}
						out.rangeOps++
						out.rangePairs += uint64(len(resp.Pairs))
					}
					if w := int(t0.Sub(start) / time.Second); w >= 0 {
						for len(out.slow) <= w {
							out.slow = append(out.slow, slowOp{})
						}
						if lat > out.slow[w].lat {
							out.slow[w] = slowOp{lat: lat, trace: trace}
						}
					}
					count(resp.Status)
				}
			}(cl, ci**pipeline+p)
		}
	}
	time.Sleep(time.Duration(*seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var total issuerOut
	for i := range outs {
		o := &outs[i]
		total.readHist.Merge(&o.readHist)
		total.writeHist.Merge(&o.writeHist)
		total.rangeHist.Merge(&o.rangeHist)
		total.rmwHist.Merge(&o.rmwHist)
		total.ok += o.ok
		total.notFound += o.notFound
		total.exists += o.exists
		total.busy += o.busy
		total.protoErr += o.protoErr
		total.shed += o.shed
		total.timeouts += o.timeouts
		total.rangeOps += o.rangeOps
		total.rangePairs += o.rangePairs
		for w, s := range o.slow {
			for len(total.slow) <= w {
				total.slow = append(total.slow, slowOp{})
			}
			if s.lat > total.slow[w].lat {
				total.slow[w] = s
			}
		}
		if o.err != nil && total.err == nil {
			total.err = o.err
		}
	}
	var retried uint64
	for _, cl := range clients {
		retried += cl.Retries()
	}
	ops := total.readHist.Count() + total.writeHist.Count() + total.rangeHist.Count() + total.rmwHist.Count()
	attempts := ops + total.shed + total.timeouts
	fmt.Printf("ibrload: %d conns × %d pipeline, %s mode, %v\n", *conns, *pipeline, *mode, elapsed.Round(time.Millisecond))
	fmt.Printf("  %d ops, %.4f Mops/s (ok %d, not-found %d, exists %d, busy %d)\n",
		ops, float64(ops)/elapsed.Seconds()/1e6, total.ok, total.notFound, total.exists, total.busy)
	if attempts > 0 {
		fmt.Printf("  overload: shed %d (%.2f%%), timeouts %d (%.2f%%), busy retries %d (%.4f/op)\n",
			total.shed, 100*float64(total.shed)/float64(attempts),
			total.timeouts, 100*float64(total.timeouts)/float64(attempts),
			retried, float64(retried)/float64(attempts))
	}
	if total.rangeOps > 0 {
		fmt.Printf("  ranges: %d scans validated, %.1f pairs/scan mean (span %d)\n",
			total.rangeOps, float64(total.rangePairs)/float64(total.rangeOps), *span)
	}
	for _, c := range []struct {
		name string
		h    *harness.LatencyHist
	}{
		{"read  (get)", &total.readHist},
		{"write (put/del)", &total.writeHist},
		{"range (scan)", &total.rangeHist},
		{"rmw (composite)", &total.rmwHist},
	} {
		if c.h.Count() == 0 {
			continue
		}
		fmt.Printf("  latency %-15s: n=%d p50~%v p95~%v p99~%v\n",
			c.name, c.h.Count(), c.h.Quantile(0.50), c.h.Quantile(0.95), c.h.Quantile(0.99))
	}
	if len(total.slow) > 0 {
		fmt.Println("  slowest op per second (look the trace ID up on /debug/trace):")
		for w, s := range total.slow {
			if s.lat == 0 {
				continue
			}
			fmt.Printf("    [%2ds] %-12v trace=0x%016x\n", w, s.lat.Round(time.Microsecond), s.trace)
		}
	}
	if total.err != nil || total.protoErr > 0 {
		fmt.Fprintf(os.Stderr, "ibrload: %d protocol errors, first transport error: %v\n", total.protoErr, total.err)
		os.Exit(1)
	}
}

// writeOp picks one 50/50 PUT/DEL request.
func writeOp(rng *rand.Rand, key uint64, ttl time.Duration) server.Request {
	if rng.Intn(2) == 0 {
		return server.Request{Op: server.OpDel, Key: key}
	}
	return server.Request{Op: server.OpPut, Key: key, Val: key*2 + 1, TTL: ttl}
}

// doPrefill PUTs ~frac of the key range through one client, fanning the
// round trips out over a small issuer pool so a large range loads quickly.
// On failure the issuers keep draining the feed (without issuing) so the
// feeder can never block on a dead pool.
func doPrefill(cl *server.Client, keyRange uint64, frac float64, seed int64, ttl time.Duration) error {
	const issuers = 32
	var (
		keys   = make(chan uint64, issuers)
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		failed atomic.Bool
	)
	report := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if failed.Load() {
					continue
				}
				r, err := cl.Put(context.Background(), k, k*2+1, ttl)
				if err != nil {
					report(err)
				} else if r.Status != server.StatusOK && r.Status != server.StatusExists {
					report(fmt.Errorf("prefill PUT %d: %v", k, r.Status))
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(seed))
	for k := uint64(0); k < keyRange; k++ {
		if rng.Float64() < frac {
			keys <- k
		}
	}
	close(keys)
	wg.Wait()
	return first
}
