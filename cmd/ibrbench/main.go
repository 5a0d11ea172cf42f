// Command ibrbench runs one cell of the paper's microbenchmark, mirroring
// the artifact's bin/main driver:
//
//	ibrbench -r hashmap -d tracker=tagibr -t 32 -i 10 -json out.jsonl
//
// runs the hash map under TagIBR with 32 threads for 10 seconds and appends
// the cell's harness.Record, one JSON line, to out.jsonl.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/harness"
	"ibr/internal/obs"
)

func main() {
	var (
		structure = flag.String("r", "hashmap", "rideable: "+strings.Join(ds.MapStructures(), ", "))
		tracker   = flag.String("d", "tracker=ebr", "memory manager, artifact-style: tracker=<name>; names: "+strings.Join(core.Schemes(), ", "))
		threads   = flag.Int("t", 4, "worker thread count")
		seconds   = flag.Float64("i", 1.0, "interval: run time in seconds")
		mode      = flag.String("m", "write", "workload mode: write (50/50 ins/rem) or read (90% reads)")
		keyRange  = flag.Uint64("range", 65536, "key range")
		prefill   = flag.Float64("prefill", 0.75, "prefilled fraction of the key range")
		epochf    = flag.Int("epochf", 150, "epoch advance frequency (per-thread allocations)")
		emptyf    = flag.Int("emptyf", core.DefaultEmptyFreq, "retire-list scan frequency (retirements)")
		buckets   = flag.Int("buckets", ds.DefaultBuckets, "hash map buckets")
		stalled   = flag.Int("stalled", 0, "stalled workers holding reservations")
		stallMS   = flag.Int("stallms", 10, "stall duration per park (ms)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		jsonPath  = flag.String("json", "", "append the cell's record (one JSON line: ops/s, scan stats, host) to this file")
		verbose   = flag.Bool("v", false, "print the full result")
		lat       = flag.Bool("lat", false, "measure per-operation latency quantiles")
		obsOn     = flag.Bool("obs", false, "run with the observability hooks live (flight recorder + histograms)")
	)
	flag.Parse()

	scheme := strings.TrimPrefix(*tracker, "tracker=")
	if !ds.IsMapStructure(*structure) {
		fmt.Fprintf(os.Stderr, "ibrbench: unknown structure %q; valid: %s\n",
			*structure, strings.Join(ds.MapStructures(), ", "))
		os.Exit(2)
	}
	if !core.IsScheme(scheme) {
		fmt.Fprintf(os.Stderr, "ibrbench: unknown scheme %q; valid: %s\n",
			scheme, strings.Join(core.Schemes(), ", "))
		os.Exit(2)
	}
	wl := harness.WriteDominated
	if *mode == "read" {
		wl = harness.ReadDominated
	}
	cfg := harness.Config{
		Structure:      *structure,
		Scheme:         scheme,
		Threads:        *threads,
		Duration:       time.Duration(*seconds * float64(time.Second)),
		Workload:       wl,
		KeyRange:       *keyRange,
		Prefill:        *prefill,
		EpochFreq:      *epochf,
		EmptyFreq:      *emptyf,
		Buckets:        *buckets,
		Stalled:        *stalled,
		StallFor:       time.Duration(*stallMS) * time.Millisecond,
		Seed:           *seed,
		MeasureLatency: *lat,
	}
	if *obsOn {
		cfg.Obs = &obs.Options{}
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibrbench:", err)
		os.Exit(1)
	}

	fmt.Printf("%s/%s t=%d %s: %.4f Mops/s, avg retired %.1f blocks\n",
		res.Structure, res.Scheme, res.Threads, res.Workload, res.Mops, res.AvgRetired)
	if l := res.Latency; l != nil {
		fmt.Printf("  latency: n=%d p50~%v p99~%v p999~%v\n", l.Count,
			time.Duration(l.Quantile(0.50)), time.Duration(l.Quantile(0.99)), time.Duration(l.Quantile(0.999)))
	}
	if *verbose {
		fmt.Printf("  ops=%d allocs=%d frees=%d live=%d\n", res.Ops, res.Allocs, res.Frees, res.Live)
		fmt.Printf("  ins %d/%d, rem %d/%d, get %d/%d (ok/fail)\n",
			res.InsertOK, res.InsertFail, res.RemoveOK, res.RemoveFail, res.GetHit, res.GetMiss)
		if res.Scans > 0 {
			fmt.Printf("  scans=%d mean-list=%.0f freed=%d\n", res.Scans, res.ScanMeanLen, res.ScanFreed)
		}
		for tid, ops := range res.PerThreadOps {
			fmt.Printf("  thread %2d: %d ops\n", tid, ops)
		}
	}
	if *jsonPath != "" {
		if err := appendRecord(*jsonPath, harness.NewRecord("", res)); err != nil {
			fmt.Fprintln(os.Stderr, "ibrbench:", err)
			os.Exit(1)
		}
	}
}

func appendRecord(path string, rec harness.Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := harness.WriteRecord(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
