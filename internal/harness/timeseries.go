package harness

import (
	"fmt"
	"io"
	"time"

	"ibr/internal/ds"
)

// SpacePoint is one sample of the global retired-but-unreclaimed count.
type SpacePoint struct {
	T       time.Duration // since workload start
	Retired int           // Σ Unreclaimed over all threads
}

// SpaceSeries is the space-vs-time curve of one run.
type SpaceSeries struct {
	Config Config
	Points []SpacePoint
	// Result is the run's own summary (elapsed time, op and outcome counts),
	// set when the run completes without error.
	Result Result
}

// RunSpaceSeries runs one benchmark cell while a sampler goroutine records
// the global retired-block count at a fixed interval. It renders the
// paper's robustness story as a time series: start a run with a stalled
// thread and watch EBR's curve climb for exactly as long as the stall
// lasts while the IBR curves plateau at the Theorem 2 bound.
//
// The sampler reads each thread's padded counter; its cost is negligible
// next to the workload.
func RunSpaceSeries(cfg Config, sampleEvery time.Duration) (SpaceSeries, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return SpaceSeries{}, err
	}
	if sampleEvery <= 0 {
		sampleEvery = 5 * time.Millisecond
	}
	out := SpaceSeries{Config: cfg}

	// Reuse Run's machinery by sampling from a sibling goroutine: Run owns
	// the workload; we poll the scheme through the structure it exposes.
	var res Result
	done := make(chan error, 1)
	ready := make(chan ds.Instrumented, 1)
	go func() {
		var err error
		res, err = runWithHook(cfg, func(inst ds.Instrumented) { ready <- inst })
		done <- err
	}()
	// Run fails before onReady when the structure cannot be built, so wait
	// for its result as well as for the structure.
	var inst ds.Instrumented
	select {
	case inst = <-ready:
	case err := <-done:
		return out, err
	}
	scheme := inst.Scheme()
	start := time.Now()
	ticker := time.NewTicker(sampleEvery)
	defer ticker.Stop()
	for {
		select {
		case err := <-done:
			out.Result = res
			return out, err
		case <-ticker.C:
			total := 0
			for tid := 0; tid < cfg.Threads+cfg.Stalled; tid++ {
				total += scheme.Unreclaimed(tid)
			}
			out.Points = append(out.Points, SpacePoint{T: time.Since(start), Retired: total})
		}
	}
}

// runWithHook is Run with a callback that exposes the structure as soon as
// prefill completes (before workers start).
func runWithHook(cfg Config, hook func(ds.Instrumented)) (Result, error) {
	cfg.onReady = hook
	return Run(cfg)
}

// WriteSpaceSeriesCSV emits "ms,retired" rows.
func WriteSpaceSeriesCSV(w io.Writer, s SpaceSeries) error {
	if _, err := fmt.Fprintln(w, "ms,retired"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.1f,%d\n", float64(p.T.Microseconds())/1000, p.Retired); err != nil {
			return err
		}
	}
	return nil
}
