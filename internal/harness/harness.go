// Package harness implements the paper's fixed-time microbenchmark (§5 and
// artifact appendix A): threads hammer a shared key-value structure with a
// random operation mix over a random key range for a fixed wall-clock
// interval, measuring throughput and the average number of retired-but-
// unreclaimed blocks sampled at the start of each operation (the space
// metric of Fig. 9). Stall injection reproduces the oversubscribed /
// preempted-thread regime beyond the hardware thread count.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
)

// Workload selects the operation mix of §5.
type Workload int

const (
	// WriteDominated is the paper's default: 50% insert / 50% remove.
	WriteDominated Workload = iota
	// ReadDominated is the §5 variant: 90% reads, 10% updates.
	ReadDominated
)

func (w Workload) String() string {
	if w == ReadDominated {
		return "read"
	}
	return "write"
}

// Config describes one benchmark cell (one point on a paper figure).
type Config struct {
	Structure string        // ds map registry name: list, hashmap, nmtree, bonsai, skiplist
	Scheme    string        // core registry name: none, ebr, hp, ...
	Threads   int           // worker count (may exceed GOMAXPROCS: oversubscription)
	Duration  time.Duration // fixed run time
	Workload  Workload
	KeyRange  uint64  // keys drawn uniformly from [0, KeyRange); default 65536
	Prefill   float64 // fraction of the key range inserted before timing; default 0.75
	EpochFreq int     // per-thread allocations per epoch bump; default 150
	EmptyFreq int     // retirements per retire-list scan; default core.DefaultEmptyFreq
	PoolSlots uint64  // node pool capacity; default mem.DefaultMaxSlots
	Buckets   int     // hash map buckets; default ds.DefaultBuckets
	Seed      int64   // RNG seed; default 1

	// Stalled is the number of additional "stalled" workers: each
	// repeatedly publishes a reservation (start_op), parks for StallFor,
	// then withdraws it — the paper's preempted thread. Stalled workers
	// perform no data-structure operations and are not counted in
	// throughput.
	Stalled  int
	StallFor time.Duration

	// MeasureLatency enables per-operation latency histograms (two
	// time.Now calls per op, ~2-5%% overhead; off by default).
	MeasureLatency bool

	// Obs, when set, runs the cell with the observability hooks live: a
	// flight recorder ring per thread plus the retire-age/scan-duration/
	// free-batch histograms (see internal/obs). The benchscan -obs cell uses
	// this to price the recording overhead against an uninstrumented run.
	Obs *obs.Options

	// onReady, when set, is called with the built structure right after
	// prefill, before workers start (used by RunSpaceSeries's sampler).
	onReady func(ds.Instrumented)
}

func (c Config) withDefaults() (Config, error) {
	if c.Structure == "" || c.Scheme == "" {
		return c, fmt.Errorf("harness: Structure and Scheme are required")
	}
	if !ds.IsMapStructure(c.Structure) {
		return c, fmt.Errorf("harness: %q is not a map structure", c.Structure)
	}
	if !ds.SchemeSupports(c.Scheme, c.Structure) {
		return c, fmt.Errorf("harness: scheme %q cannot run structure %q", c.Scheme, c.Structure)
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.KeyRange == 0 {
		c.KeyRange = 65536
	}
	if c.Prefill == 0 {
		c.Prefill = 0.75
	}
	if c.Prefill < 0 || c.Prefill > 1 {
		return c, fmt.Errorf("harness: Prefill %v out of [0,1]", c.Prefill)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StallFor == 0 {
		c.StallFor = time.Millisecond
	}
	if c.EmptyFreq == 0 {
		c.EmptyFreq = core.DefaultEmptyFreq
	}
	return c, nil
}

// Result is one measured cell.
type Result struct {
	Config

	Ops        uint64        // completed operations (workers only)
	Mops       float64       // throughput in million operations per second
	Elapsed    time.Duration // measured wall time (workers running), not Config.Duration
	AvgRetired float64       // mean retired-but-unreclaimed blocks (global estimate)

	// Operation outcome counters: a healthy write-dominated run at steady
	// state succeeds ~50% of inserts and removes; a degenerate workload
	// (see the SplitMix64 note below) shows up immediately here.
	InsertOK, InsertFail uint64
	RemoveOK, RemoveFail uint64
	GetHit, GetMiss      uint64

	Allocs uint64 // allocator counters at the end of the run
	Frees  uint64
	Live   uint64

	// Latency is the merged per-op latency histogram in nanoseconds;
	// non-nil only when Config.MeasureLatency was set.
	Latency *obs.HistSnapshot

	// Scan work performed by the reclamation scheme (zero for NoMM):
	// Scans is the number of empty() executions, ScanExamined the number of
	// retired blocks those scans examined (conflict tests actually run —
	// with the summarized scans this can be far below the retire-list
	// length), ScanMeanLen = ScanExamined/Scans — the per-retirement
	// overhead that lands on the critical path when every core is busy (see
	// EXPERIMENTS.md).
	Scans        uint64
	ScanExamined uint64
	ScanMeanLen  float64
	ScanFreed    uint64
	// Whole-bucket scan decisions: buckets kept (skips) or freed wholesale
	// by one corner test each, without touching their blocks.
	ScanBucketSkips uint64
	ScanBucketFrees uint64

	PerThreadOps []uint64
}

// worker-local accumulators, padded against false sharing.
type workerStat struct {
	_          [64]byte
	ops        uint64
	spaceSum   uint64 // Σ own-unreclaimed sampled at op start
	spaceCount uint64
	insOK      uint64
	insFail    uint64
	remOK      uint64
	remFail    uint64
	getHit     uint64
	getMiss    uint64
	lat        obs.Hist
	_          [64]byte
}

// Run executes one benchmark cell and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	totalThreads := cfg.Threads + cfg.Stalled
	var schemeObs *obs.SchemeObs
	if cfg.Obs != nil {
		o := cfg.Obs.WithDefaults()
		schemeObs = obs.NewSchemeObs(obs.SchemeObsConfig{
			Threads:     totalThreads,
			Recorder:    obs.NewRecorder(totalThreads, o.RingSize),
			RetireAge:   &obs.Hist{},
			ScanDur:     &obs.Hist{},
			FreeBatch:   &obs.Hist{},
			SampleEvery: o.SampleEvery,
		})
	}
	m, err := ds.NewMap(cfg.Structure, ds.Config{
		Scheme: cfg.Scheme,
		Core: core.Options{
			Threads:   totalThreads,
			EpochFreq: cfg.EpochFreq,
			EmptyFreq: cfg.EmptyFreq,
			Obs:       schemeObs,
		},
		PoolSlots: cfg.PoolSlots,
		Buckets:   cfg.Buckets,
	})
	if err != nil {
		return Result{}, err
	}
	inst := m.(ds.Instrumented)

	// Prefill with ~Prefill of the key range (deterministic per Seed). The
	// pairs are shuffled: the Natarajan–Mittal tree is unbalanced, so an
	// ascending prefill would degenerate it into a 49k-deep path, while
	// the paper's random-order prefill yields expected O(log n) depth.
	rng := newRand(uint64(cfg.Seed))
	pairs := make([]ds.KV, 0, int(float64(cfg.KeyRange)*cfg.Prefill)+1)
	for k := uint64(0); k < cfg.KeyRange; k++ {
		if rng.float() < cfg.Prefill {
			pairs = append(pairs, ds.KV{Key: k, Val: k})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- { // Fisher–Yates
		j := int(rng.next() % uint64(i+1))
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	m.Fill(pairs)
	if cfg.onReady != nil {
		cfg.onReady(inst)
	}

	var (
		stop  atomic.Bool
		stats = make([]workerStat, cfg.Threads)
		wg    sync.WaitGroup
	)
	scheme := inst.Scheme()
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := newRand(uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(tid) + 1)
			st := &stats[tid]
			for !stop.Load() {
				st.spaceSum += uint64(scheme.Unreclaimed(tid))
				st.spaceCount++
				key := r.next() % cfg.KeyRange
				var opStart time.Time
				if cfg.MeasureLatency {
					opStart = time.Now()
				}
				switch cfg.Workload {
				case ReadDominated:
					if r.next()%100 < 90 {
						if _, ok := m.Get(tid, key); ok {
							st.getHit++
						} else {
							st.getMiss++
						}
					} else if r.next()%2 == 0 {
						if m.Insert(tid, key, key) {
							st.insOK++
						} else {
							st.insFail++
						}
					} else {
						if m.Remove(tid, key) {
							st.remOK++
						} else {
							st.remFail++
						}
					}
				default:
					if r.next()%2 == 0 {
						if m.Insert(tid, key, key) {
							st.insOK++
						} else {
							st.insFail++
						}
					} else {
						if m.Remove(tid, key) {
							st.remOK++
						} else {
							st.remFail++
						}
					}
				}
				if cfg.MeasureLatency {
					st.lat.Record(uint64(time.Since(opStart)))
				}
				st.ops++
			}
		}(tid)
	}
	// Stalled workers: park with a published reservation (see Config).
	for i := 0; i < cfg.Stalled; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			stall(scheme, tid, cfg.StallFor, &stop)
		}(cfg.Threads + i)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Config: cfg, PerThreadOps: make([]uint64, cfg.Threads)}
	for tid := range stats {
		res.Ops += stats[tid].ops
		res.PerThreadOps[tid] = stats[tid].ops
		res.InsertOK += stats[tid].insOK
		res.InsertFail += stats[tid].insFail
		res.RemoveOK += stats[tid].remOK
		res.RemoveFail += stats[tid].remFail
		res.GetHit += stats[tid].getHit
		res.GetMiss += stats[tid].getMiss
		if stats[tid].spaceCount > 0 {
			res.AvgRetired += float64(stats[tid].spaceSum) / float64(stats[tid].spaceCount)
		}
	}
	if cfg.MeasureLatency {
		res.Latency = &obs.HistSnapshot{}
		for tid := range stats {
			res.Latency.Merge(stats[tid].lat.Snapshot())
		}
	}
	res.Elapsed = elapsed
	res.Mops = float64(res.Ops) / elapsed.Seconds() / 1e6
	scan := scheme.ScanStats()
	res.Scans = scan.Scans
	res.ScanExamined = scan.Scanned
	res.ScanMeanLen = scan.MeanListLen()
	res.ScanFreed = scan.Freed
	res.ScanBucketSkips = scan.BucketSkips
	res.ScanBucketFrees = scan.BucketFrees
	st := inst.PoolStats()
	res.Allocs, res.Frees, res.Live = st.Allocs, st.Frees, st.Live()
	return res, nil
}

// stall is one stalled worker (see Config.Stalled): until stop is set it
// publishes a reservation, parks for d, and withdraws it.
//
//ibrlint:ignore injected stall: a bare StartOp/EndOp reservation that touches no node, so there is nothing for a Guard to protect
func stall(s core.Scheme, tid int, d time.Duration, stop *atomic.Bool) {
	for !stop.Load() {
		s.StartOp(tid)
		time.Sleep(d)
		s.EndOp(tid)
	}
}

// xrand is a per-worker SplitMix64 generator: fast, deterministic per seed
// (math/rand's lock would serialize the workers), and — crucially — with
// *all* output bits well mixed. An earlier xorshift64* version had a
// workload-degenerating pathology: the low bit of output n+1 is a function
// of bits 0 and 7 of state n, and key = output n mod 2^16 is invertible in
// the low state bits, so every benchmark key was permanently paired with
// one operation type and the insert/remove mix froze. SplitMix64's two
// multiply-xorshift finalizer rounds decouple every output bit from the
// (purely additive) state.
type xrand struct{ s uint64 }

func newRand(seed uint64) *xrand { return &xrand{s: seed} }

func (r *xrand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *xrand) float() float64 { return float64(r.next()>>11) / (1 << 53) }
