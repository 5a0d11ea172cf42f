package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibr/internal/ds"
	"ibr/internal/obs"
)

func quick(t *testing.T, cfg Config) Result {
	t.Helper()
	if cfg.Duration == 0 {
		cfg.Duration = 30 * time.Millisecond
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 512
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBasics(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "ebr", Threads: 2})
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.Mops <= 0 {
		t.Fatal("non-positive throughput")
	}
	if len(r.PerThreadOps) != 2 {
		t.Fatalf("PerThreadOps has %d entries, want 2", len(r.PerThreadOps))
	}
	if r.Allocs == 0 {
		t.Fatal("no allocations recorded (prefill should allocate)")
	}
}

func TestRunAllStructuresAllSchemes(t *testing.T) {
	for _, structure := range []string{"list", "hashmap", "nmtree", "bonsai"} {
		for _, scheme := range []string{"none", "ebr", "hp", "he", "poibr", "tagibr", "tagibr-faa", "tagibr-wcas", "2geibr"} {
			if !ds.SchemeSupports(scheme, structure) {
				continue // unsupported combination: validated separately
			}
			cfg := Config{Structure: structure, Scheme: scheme, Threads: 2,
				Duration: 15 * time.Millisecond, KeyRange: 256}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				if r := quick(t, cfg); r.Ops == 0 {
					t.Fatal("no operations completed")
				}
			})
		}
	}
}

func TestRunRejectsUnsupportedPairs(t *testing.T) {
	for _, c := range []Config{
		{Structure: "list", Scheme: "poibr", Threads: 1},
		{Structure: "bonsai", Scheme: "hp", Threads: 1},
		{Structure: "bonsai", Scheme: "he", Threads: 1},
		{Structure: "", Scheme: "ebr"},
		{Structure: "hashmap", Scheme: ""},
		{Structure: "stack", Scheme: "tagibr"},  // SchemeSupports allows it; no Map
		{Structure: "hashmap", Scheme: "bogus"}, // fails in the constructor
	} {
		if _, err := Run(c); err == nil {
			t.Errorf("Run(%+v) should have failed", c)
		}
		// RunSpaceSeries returns the same error; it must not wait for a
		// structure that was never built.
		errc := make(chan error, 1)
		go func() { _, err := RunSpaceSeries(c, time.Millisecond); errc <- err }()
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("RunSpaceSeries(%+v) should have failed", c)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("RunSpaceSeries(%+v) still blocked after 5s", c)
		}
	}
}

func TestRunPrefillFraction(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "none", Threads: 1,
		KeyRange: 4096, Prefill: 0.75, Duration: 10 * time.Millisecond})
	// Prefill allocates one node per inserted key; with NoMM nothing is
	// freed, so allocs >= prefill size.
	if r.Allocs < 2800 { // E[prefill] = 3072; allow slack
		t.Fatalf("allocs %d, expected roughly 3072 prefill nodes", r.Allocs)
	}
}

func TestRunDeterministicPrefill(t *testing.T) {
	a := quick(t, Config{Structure: "hashmap", Scheme: "none", Threads: 1,
		KeyRange: 1024, Seed: 7, Duration: 5 * time.Millisecond})
	b := quick(t, Config{Structure: "hashmap", Scheme: "none", Threads: 1,
		KeyRange: 1024, Seed: 7, Duration: 5 * time.Millisecond})
	// Same seed → same prefill; ops differ (timing) but the prefill
	// allocation count must match exactly before workers start. We can't
	// observe that directly post-run, so compare a stronger proxy: the
	// number of distinct keys sampled is identical because both runs use
	// the same generator. Weak but deterministic: prefill count parity via
	// Live for NoMM minus op allocations is noisy, so just require both
	// runs completed ops.
	if a.Ops == 0 || b.Ops == 0 {
		t.Fatal("runs made no progress")
	}
}

// TestStalledThreadSpaceBlowup is the executable form of the paper's
// headline robustness claim (Fig. 9 beyond 72 threads): with stalled
// threads holding reservations, EBR's retired-but-unreclaimed count grows
// with retire rate × stall time, while every IBR's stays bounded by the
// structure. Both bounds come from the run's own Result, so a slowed-down
// run (the race detector, an oversubscribed CPU) moves them with it
// instead of failing: comparing the schemes' piles to each other did not
// survive full-suite -race load on 2 CPUs, where EBR's retire rate, and
// with it its pile, fell towards the IBRs' fixed ceiling.
func TestStalledThreadSpaceBlowup(t *testing.T) {
	run := func(scheme string) Result {
		return quick(t, Config{
			Structure: "hashmap", Scheme: scheme, Threads: 2,
			Stalled: 2, StallFor: 150 * time.Millisecond,
			Duration: 400 * time.Millisecond, KeyRange: 1024,
			EpochFreq: 150, EmptyFreq: 30,
		})
	}
	// An IBR reservation published at StartOp pins only blocks alive in
	// its epoch: at most one node per key plus the epoch's births (each
	// tid bumps the epoch every EpochFreq allocations). On top, each
	// worker holds the retirements since its last scan: a futile scan
	// doubles the scan step up to core's cap of 32 × EmptyFreq.
	for _, scheme := range []string{"tagibr", "2geibr"} {
		r := run(scheme)
		ceiling := float64(r.Stalled*(int(r.KeyRange)+r.Threads*r.EpochFreq) + r.Threads*32*r.EmptyFreq)
		t.Logf("%s: avg retired %.1f, ceiling %.0f", scheme, r.AvgRetired, ceiling)
		if r.AvgRetired > ceiling {
			t.Errorf("%s avg retired %.1f above the structure-size ceiling %.0f under stalls",
				scheme, r.AvgRetired, ceiling)
		}
	}
	// EBR frees nothing retired after the oldest live reservation began. A
	// staller re-reserves every StallFor, so two out-of-phase stallers pin
	// on average two thirds of a StallFor window's retirements (one per
	// successful remove); demand a quarter.
	ebr := run("ebr")
	perWindow := float64(ebr.RemoveOK) * float64(ebr.StallFor) / float64(ebr.Elapsed)
	t.Logf("ebr: avg retired %.1f, %d removes over %v (%.0f per stall window)",
		ebr.AvgRetired, ebr.RemoveOK, ebr.Elapsed, perWindow)
	if ebr.RemoveOK == 0 || ebr.AvgRetired < perWindow/4 {
		t.Errorf("EBR avg retired %.1f, want >= %.0f (a quarter of %d removes per %v over %v): stalls did not pin EBR's retirements",
			ebr.AvgRetired, perWindow/4, ebr.RemoveOK, ebr.StallFor, ebr.Elapsed)
	}
}

func TestExperimentsIndex(t *testing.T) {
	exps := Experiments()
	if len(exps) < 7 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
		if len(e.Schemes) == 0 || len(e.Threads) == 0 {
			t.Errorf("experiment %s has empty sweep", e.ID)
		}
		for _, s := range e.Schemes {
			if !ds.SchemeSupports(s, e.Structure) {
				t.Errorf("experiment %s lists unsupported scheme %s", e.ID, s)
			}
		}
	}
	for _, want := range []string{"fig8a", "fig8b", "fig8c", "fig8d", "fig10", "ksweep", "stall"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestExperimentAliases(t *testing.T) {
	for alias, wantID := range map[string]string{
		"fig9a": "fig8a", "9c": "fig8c", "8b": "fig8b", "10": "fig10", "k": "ksweep",
	} {
		e, err := ExperimentByID(alias)
		if err != nil || e.ID != wantID {
			t.Errorf("ExperimentByID(%q) = %v, %v; want %s", alias, e.ID, err, wantID)
		}
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Error("unknown experiment id did not error")
	}
}

func TestCellsExpansion(t *testing.T) {
	e, _ := ExperimentByID("fig8b")
	cells := e.Cells(50*time.Millisecond, []int{1, 2})
	if len(cells) != 2*len(e.Schemes) {
		t.Fatalf("got %d cells, want %d", len(cells), 2*len(e.Schemes))
	}
	for _, c := range cells {
		if c.Duration != 50*time.Millisecond || c.Structure != "hashmap" {
			t.Fatalf("bad cell %+v", c)
		}
	}
	k, _ := ExperimentByID("ksweep")
	cells = k.Cells(time.Millisecond, nil)
	if len(cells) != len(k.Schemes)*len(k.EmptyFreqs) {
		t.Fatalf("ksweep: got %d cells, want %d", len(cells), len(k.Schemes)*len(k.EmptyFreqs))
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "tagibr", Threads: 1, EmptyFreq: 5})
	rec := NewRecord("fig8b", r)
	if rec.Ops == 0 || rec.Seconds <= 0 || rec.Nproc <= 0 || rec.GOMAXPROCS <= 0 || rec.Scans == 0 {
		t.Fatalf("incomplete record %+v", rec)
	}
	if derived := float64(rec.Ops) / rec.Seconds / 1e6; math.Abs(derived-rec.Mops) > 1e-9*rec.Mops {
		t.Fatalf("ops/seconds = %v Mops, mops = %v", derived, rec.Mops)
	}
	// A record without scan counts (converted from a run that did not count
	// them) writes none of their fields.
	bare := rec
	bare.Experiment, bare.ScanCounts = "", nil
	var buf bytes.Buffer
	for _, x := range []Record{rec, bare} {
		if err := WriteRecord(&buf, x); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], `{"experiment":"fig8b","structure":"hashmap","scheme":"tagibr","threads":1,"stalled":0,"emptyfreq":5,"mode":"write",`) {
		t.Fatalf("lines:\n%s", buf.String())
	}
	if strings.Contains(lines[1], "experiment") || strings.Contains(lines[1], "scan") {
		t.Fatalf("bare record wrote absent fields: %s", lines[1])
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], rec) || !reflect.DeepEqual(got[1], bare) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, []Record{rec, bare})
	}
}

func TestReadRecordsErrors(t *testing.T) {
	for _, in := range []string{
		`{"scheme":"ebr","threads":"four"}`,
		`{"scheme":"ebr","duration_ms":400}`,
		`{"scheme":"ebr"`,
	} {
		if recs, err := ReadRecords(strings.NewReader(in)); err == nil {
			t.Errorf("ReadRecords(%s) = %+v, want an error", in, recs)
		}
	}
	if recs, err := ReadRecords(strings.NewReader("")); err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v, %v", recs, err)
	}
}

func TestXrandDistinctStreams(t *testing.T) {
	a, b := newRand(1), newRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds produced %d/100 identical outputs", same)
	}
	f := newRand(3).float()
	if f < 0 || f >= 1 {
		t.Fatalf("float() = %v out of [0,1)", f)
	}
}

// TestXrandKeyOpIndependence is the regression test for a subtle workload
// bug: with the original xorshift64* generator, the op-selection bit was a
// deterministic function of the key draw, so every key was permanently
// paired with insert-only or remove-only and the benchmark degenerated into
// ~100% failed operations. With SplitMix64, every key must see both ops.
func TestXrandKeyOpIndependence(t *testing.T) {
	r := newRand(1)
	opsSeen := map[uint64]int{}
	for i := 0; i < 300000; i++ {
		key := r.next() % 2048
		if r.next()%2 == 0 {
			opsSeen[key] |= 1
		} else {
			opsSeen[key] |= 2
		}
	}
	stuck := 0
	for _, m := range opsSeen {
		if m != 3 {
			stuck++
		}
	}
	if stuck > 0 {
		t.Fatalf("%d of %d keys saw only one op type: key/op correlation is back", stuck, len(opsSeen))
	}
}

// TestWorkloadReachesSteadyState checks the benchmark actually churns: in a
// write-dominated run, successful inserts (hence allocations) must be a
// significant fraction of operations, not a vanishing one.
func TestWorkloadReachesSteadyState(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "ebr", Threads: 1,
		KeyRange: 4096, Duration: 100 * time.Millisecond})
	workerAllocs := float64(r.Allocs) // includes ~3072 prefill
	if workerAllocs < float64(r.Ops)/10 {
		t.Fatalf("only %.0f allocs for %d ops: workload degenerated", workerAllocs, r.Ops)
	}
}

// TestOutcomeCounters checks the op-outcome accounting: counters must sum
// to Ops, and a steady-state write-dominated run must succeed a healthy
// fraction of its updates (the churn regression guard, structural version).
func TestOutcomeCounters(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "ebr", Threads: 2,
		KeyRange: 2048, Duration: 80 * time.Millisecond})
	sum := r.InsertOK + r.InsertFail + r.RemoveOK + r.RemoveFail + r.GetHit + r.GetMiss
	if sum != r.Ops {
		t.Fatalf("outcome counters sum to %d, ops = %d", sum, r.Ops)
	}
	if r.GetHit+r.GetMiss != 0 {
		t.Fatal("write-dominated run recorded reads")
	}
	if ok := float64(r.InsertOK+r.RemoveOK) / float64(r.Ops); ok < 0.2 {
		t.Fatalf("only %.1f%% of updates succeeded: degenerate workload", ok*100)
	}
	rd := quick(t, Config{Structure: "hashmap", Scheme: "ebr", Threads: 2,
		Workload: ReadDominated, KeyRange: 2048, Duration: 50 * time.Millisecond})
	reads := rd.GetHit + rd.GetMiss
	if frac := float64(reads) / float64(rd.Ops); frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction %.2f, want ~0.90", frac)
	}
}

// TestSpaceSeriesShowsStallGrowth records the space-vs-time curve with a
// mid-run staller: EBR's curve must climb well past its stall-free level,
// and the series machinery must produce ordered, plausible samples.
func TestSpaceSeries(t *testing.T) {
	const every = 5 * time.Millisecond
	s, err := RunSpaceSeries(Config{
		Structure: "hashmap", Scheme: "ebr", Threads: 2,
		Stalled: 1, StallFor: 40 * time.Millisecond,
		Duration: 120 * time.Millisecond, KeyRange: 2048,
	}, every)
	if err != nil {
		t.Fatal(err)
	}
	// Both floors scale with what the run actually did, so a slowed-down run
	// (the race detector, an oversubscribed CPU) lowers them instead of
	// failing. Samples: the ticker may be starved by the busy workers until
	// the scheduler preempts one, so demand a quarter of the nominal count.
	res := s.Result
	if want := max(2, int(res.Elapsed/(4*every))); len(s.Points) < want {
		t.Fatalf("only %d samples over %v, want >= %d", len(s.Points), res.Elapsed, want)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].T <= s.Points[i-1].T {
			t.Fatal("samples not time-ordered")
		}
	}
	peak := 0
	for _, p := range s.Points {
		peak = max(peak, p.Retired)
	}
	// The staller re-reserves every StallFor, so EBR pins every removal of a
	// StallFor window: the peak must reach a quarter of the mean window's
	// worth of successful removes.
	perWindow := float64(res.RemoveOK) * float64(s.Config.StallFor) / float64(res.Elapsed)
	t.Logf("%d samples, peak %d retired, %d removes over %v", len(s.Points), peak, res.RemoveOK, res.Elapsed)
	if res.RemoveOK == 0 || float64(peak) < perWindow/4 {
		t.Fatalf("peak retired %d, want >= %.0f (%d removes over %v); stall did not inflate EBR's curve",
			peak, perWindow/4, res.RemoveOK, res.Elapsed)
	}
	var sb strings.Builder
	if err := WriteSpaceSeriesCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(s.Points)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(s.Points)+1)
	}
}

func TestLatencyHistogram(t *testing.T) {
	var h obs.Hist
	if s := h.Snapshot(); s.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 900; i++ {
		recordLatency(&h, 100*time.Nanosecond)
	}
	for i := 0; i < 100; i++ {
		recordLatency(&h, 100*time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if p50 := latencyQuantile(&s, 0.5); p50 > time.Microsecond {
		t.Fatalf("p50 = %v, want sub-microsecond", p50)
	}
	if p999 := latencyQuantile(&s, 0.999); p999 < 50*time.Microsecond {
		t.Fatalf("p999 = %v, want >= 50µs", p999)
	}
	var h2 obs.Hist
	recordLatency(&h2, time.Millisecond)
	s.Merge(h2.Snapshot())
	if s.Count != 1001 {
		t.Fatal("merge lost counts")
	}
	if want := uint64(900*100 + 100*100_000 + 1_000_000); s.Sum != want {
		t.Fatalf("sum = %d ns, want %d", s.Sum, want)
	}
}

func TestRunWithLatency(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "tagibr", Threads: 2,
		KeyRange: 1024, Duration: 50 * time.Millisecond, MeasureLatency: true})
	if r.Latency == nil || r.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	if r.Latency.Count != r.Ops {
		t.Fatalf("latency samples %d != ops %d", r.Latency.Count, r.Ops)
	}
	if p50 := time.Duration(r.Latency.Quantile(0.5)); p50 <= 0 || p50 > time.Second {
		t.Fatalf("implausible p50 %v", p50)
	}
	// Default runs must not allocate a histogram.
	r2 := quick(t, Config{Structure: "hashmap", Scheme: "tagibr", Threads: 1})
	if r2.Latency != nil {
		t.Fatal("latency measured without opt-in")
	}
}

func TestScanStatsSurface(t *testing.T) {
	r := quick(t, Config{Structure: "hashmap", Scheme: "ebr", Threads: 2,
		KeyRange: 1024, Duration: 60 * time.Millisecond})
	if r.Scans == 0 || r.ScanFreed == 0 {
		t.Fatalf("no scan work recorded: %+v", r)
	}
	if r.ScanMeanLen <= 0 {
		t.Fatal("mean scan length not computed")
	}
	n := quick(t, Config{Structure: "hashmap", Scheme: "none", Threads: 1,
		Duration: 10 * time.Millisecond})
	if n.Scans != 0 {
		t.Fatal("NoMM reported scans")
	}
}
