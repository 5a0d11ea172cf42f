// Command ibrbench runs one cell of the paper's microbenchmark, mirroring
// the artifact's bin/main driver:
//
//	ibrbench -r hashmap -d tracker=tagibr -t 32 -i 10 -json out.jsonl
//
// runs the hash map under TagIBR with 32 threads for 10 seconds and appends
// the cell's harness.Record, one JSON line, to out.jsonl.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/harness"
	"ibr/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the cell and returns the exit
// code — 2 for a usage error (an unknown structure or scheme, or a pair
// the scheme cannot run), 1 if the run or the record write failed, else 0.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		structure = fs.String("r", "hashmap", "rideable: "+strings.Join(ds.MapStructures(), ", "))
		tracker   = fs.String("d", "tracker=ebr", "memory manager, artifact-style: tracker=<name>; names: "+strings.Join(core.Schemes(), ", "))
		threads   = fs.Int("t", 4, "worker thread count")
		seconds   = fs.Float64("i", 1.0, "interval: run time in seconds")
		mode      = fs.String("m", "write", "workload mode: write (50/50 ins/rem) or read (90% reads)")
		keyRange  = fs.Uint64("range", 65536, "key range")
		prefill   = fs.Float64("prefill", 0.75, "prefilled fraction of the key range")
		epochf    = fs.Int("epochf", 150, "epoch advance frequency (per-thread allocations)")
		emptyf    = fs.Int("emptyf", core.DefaultEmptyFreq, "retire-list scan frequency (retirements)")
		buckets   = fs.Int("buckets", ds.DefaultBuckets, "hash map buckets")
		stalled   = fs.Int("stalled", 0, "stalled workers holding reservations")
		stallMS   = fs.Int("stallms", 10, "stall duration per park (ms)")
		seed      = fs.Int64("seed", 1, "workload RNG seed")
		jsonPath  = fs.String("json", "", "append the cell's record (one JSON line: ops/s, scan stats, host) to this file")
		verbose   = fs.Bool("v", false, "print the full result")
		lat       = fs.Bool("lat", false, "measure per-operation latency quantiles")
		obsOn     = fs.Bool("obs", false, "run with the observability hooks live (flight recorder + histograms)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	scheme := strings.TrimPrefix(*tracker, "tracker=")
	if err := ds.CheckMap(*structure, scheme); err != nil {
		fmt.Fprintf(stderr, "ibrbench: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ibrbench:", err)
		return 1
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
		return fail(err)
	}

	fmt.Fprintf(stdout, "%s/%s t=%d %s: %.4f Mops/s, avg retired %.1f blocks\n",
		res.Structure, res.Scheme, res.Threads, res.Workload, res.Mops, res.AvgRetired)
	if l := res.Latency; l != nil {
		fmt.Fprintf(stdout, "  latency: n=%d p50~%v p99~%v p999~%v\n", l.Count,
			time.Duration(l.Quantile(0.50)), time.Duration(l.Quantile(0.99)), time.Duration(l.Quantile(0.999)))
	}
	if *verbose {
		fmt.Fprintf(stdout, "  ops=%d allocs=%d frees=%d live=%d\n", res.Ops, res.Allocs, res.Frees, res.Live)
		fmt.Fprintf(stdout, "  ins %d/%d, rem %d/%d, get %d/%d (ok/fail)\n",
			res.InsertOK, res.InsertFail, res.RemoveOK, res.RemoveFail, res.GetHit, res.GetMiss)
		if res.Scans > 0 {
			fmt.Fprintf(stdout, "  scans=%d mean-list=%.0f freed=%d\n", res.Scans, res.ScanMeanLen, res.ScanFreed)
		}
		for tid, ops := range res.PerThreadOps {
			fmt.Fprintf(stdout, "  thread %2d: %d ops\n", tid, ops)
		}
	}
	if *jsonPath != "" {
		if err := appendRecord(*jsonPath, harness.NewRecord("", res)); err != nil {
			return fail(err)
		}
	}
	return 0
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
