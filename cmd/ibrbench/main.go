// Command ibrbench runs one cell of the paper's microbenchmark, mirroring
// the artifact's bin/main driver:
//
//	ibrbench -r hashmap -d tracker=tagibr -t 32 -i 10 -o out.csv
//
// runs the hash map under TagIBR with 32 threads for 10 seconds and appends
// a CSV row to out.csv.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
		emptyf    = flag.Int("emptyf", 30, "retire-list scan frequency (retirements)")
		buckets   = flag.Int("buckets", ds.DefaultBuckets, "hash map buckets")
		stalled   = flag.Int("stalled", 0, "stalled workers holding reservations")
		stallMS   = flag.Int("stallms", 10, "stall duration per park (ms)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		outPath   = flag.String("o", "", "append a CSV row to this file (header added if new)")
		jsonPath  = flag.String("json", "", "append a machine-readable JSON line (ops/s + scan stats) to this file")
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
	if *outPath != "" {
		if err := appendCSV(*outPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "ibrbench:", err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		if err := appendJSON(*jsonPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "ibrbench:", err)
			os.Exit(1)
		}
	}
}

// benchRecord is the BENCH_scan.json line format: one self-contained JSON
// object per run, so CI and scripts can diff scan efficiency across commits
// without parsing the human-oriented CSV.
type benchRecord struct {
	Structure        string  `json:"structure"`
	Scheme           string  `json:"scheme"`
	Threads          int     `json:"threads"`
	Mode             string  `json:"mode"`
	Seconds          float64 `json:"seconds"`
	Ops              uint64  `json:"ops"`
	Mops             float64 `json:"mops"`
	AvgRetired       float64 `json:"avg_retired"`
	Scans            uint64  `json:"scans"`
	ScanExaminedMean float64 `json:"scan_examined_mean"`
	ScanFreed        uint64  `json:"scan_freed"`
	ExaminedPerFreed float64 `json:"examined_per_freed"`
	BucketSkips      uint64  `json:"bucket_skips"`
	BucketFrees      uint64  `json:"bucket_frees"`
	Obs              bool    `json:"obs"`
	// The host the cell ran on: its CPU count and the Go scheduler's
	// parallelism, without which ops/s cannot be compared across runs.
	Nproc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

func appendJSON(path string, res harness.Result) error {
	rec := benchRecord{
		Structure: res.Structure,
		Scheme:    res.Scheme,
		Threads:   res.Threads,
		Mode:      res.Workload.String(),
		// Measured wall time, NOT the requested -i interval: wg.Wait() lets
		// in-flight ops finish after the stop flag, so ops/seconds must use
		// the same clock Mops was computed with or the two silently disagree.
		Seconds:          res.Elapsed.Seconds(),
		Ops:              res.Ops,
		Mops:             res.Mops,
		AvgRetired:       res.AvgRetired,
		Scans:            res.Scans,
		ScanExaminedMean: res.ScanMeanLen,
		ScanFreed:        res.ScanFreed,
		BucketSkips:      res.ScanBucketSkips,
		BucketFrees:      res.ScanBucketFrees,
		Obs:              res.Obs != nil,
		Nproc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
	}
	if res.ScanFreed > 0 {
		rec.ExaminedPerFreed = float64(res.ScanExamined) / float64(res.ScanFreed)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

func appendCSV(path string, res harness.Result) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if os.IsNotExist(statErr) {
		if err := harness.WriteCSVHeader(f); err != nil {
			return err
		}
	}
	return harness.WriteCSVRow(f, "manual", res)
}
