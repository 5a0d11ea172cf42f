package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// SchemeObs is the hook sink a reclamation scheme (internal/core) reports
// into. Every method is safe on a nil receiver — a disabled observer is a
// nil pointer, so the hooks compiled into the scheme hot paths cost one
// predictable branch when observability is off. Retire events are thinned
// by the sampling mask before touching the ring; scan-rate kinds are
// recorded unconditionally, they are orders of magnitude rarer.
//
// A SchemeObs serves the thread ids of exactly one scheme instance: ring
// RingBase+tid of the recorder must be written only through this observer
// by the goroutine leasing tid (the same single-writer contract the scheme
// itself imposes).
type SchemeObs struct {
	rec        *Recorder
	ringBase   int
	retireAge  *Hist
	scanDur    *Hist
	freeBatch  *Hist
	sampleMask uint64
	traceMask  uint64
	phases     *ScanPhases
	ts         []schemeThread

	// Pinned-memory blame attribution: pin[scanner][witness] is the number
	// of kept blocks scanner charged to witness's reservation at its latest
	// scan; pinSince[witness] is the timestamp the witness first became a
	// pinner (0 = not currently blamed). Scanners own their rows (plain
	// stores), readers sum columns.
	pin      [][]atomic.Uint64
	pinSince []atomic.Uint64
}

// Scan-phase indices of ScanPhases, in scan order.
const (
	PhaseSummarize = iota
	PhaseBucketDecide
	PhaseResidualSweep
	PhaseFreeBatch
	NumScanPhases
)

// PhaseNames are the `phase` label values of ibr_scan_phase_ns, indexed by
// the Phase constants.
var PhaseNames = [NumScanPhases]string{"summarize", "bucket_decide", "residual_sweep", "free_batch"}

// ScanPhases is the scan-phase timing breakdown: one nanosecond histogram
// per phase (reservation summarize, whole-bucket corner decisions, residual
// per-segment sweep, free-batch handback). The serving engine shares one
// instance across every shard's observer so /metrics exports a single
// per-phase family.
type ScanPhases [NumScanPhases]Hist

// PinStat is one reservation-holding tid's pinned-memory attribution.
type PinStat struct {
	Tid    int
	Blocks uint64        // kept blocks charged to the tid by the latest scans
	Age    time.Duration // how long the tid has been continuously blamed
}

// schemeThread is per-tid sampling state, padded so two workers' counters
// never share a cache line.
type schemeThread struct {
	_       [64]byte
	retires uint64
	_       [64]byte
}

// SchemeObsConfig wires a SchemeObs.
type SchemeObsConfig struct {
	// Threads is the scheme's thread-id count. Required.
	Threads int
	// Recorder and RingBase place the per-tid event rings: tid writes ring
	// RingBase+tid. A nil Recorder disables ring events but keeps the
	// histograms.
	Recorder *Recorder
	RingBase int
	// RetireAge observes the retire→free age in epochs of every reclaimed
	// block (the live form of Fig. 9's unreclaimed-growth metric).
	RetireAge *Hist
	// ScanDur observes retire-list scan wall time in nanoseconds.
	ScanDur *Hist
	// FreeBatch observes blocks freed per scan (including zero-free scans).
	FreeBatch *Hist
	// SampleEvery thins retire ring events (default 64, rounded up to a
	// power of two).
	SampleEvery int
	// TraceEvery selects traced block-lifecycle spans by pool slot index:
	// slots ≡ 0 (mod TraceEvery) record span events (default 64, rounded up
	// to a power of two; 1 traces every slot).
	TraceEvery int
	// Phases, when non-nil, receives the scan-phase timing breakdown. It
	// may be shared across observers — the serving engine keeps one per
	// process.
	Phases *ScanPhases
}

// pow2AtLeast rounds n up to a power of two, defaulting non-positive n.
func pow2AtLeast(n, def int) int {
	if n <= 0 {
		n = def
	}
	if n&(n-1) != 0 {
		p := 1
		for p < n {
			p <<= 1
		}
		n = p
	}
	return n
}

// NewSchemeObs builds an observer. Histograms left nil are simply not fed.
func NewSchemeObs(cfg SchemeObsConfig) *SchemeObs {
	if cfg.Threads <= 0 {
		panic("obs: SchemeObsConfig.Threads must be positive")
	}
	se := pow2AtLeast(cfg.SampleEvery, 64)
	te := pow2AtLeast(cfg.TraceEvery, 64)
	o := &SchemeObs{
		rec:        cfg.Recorder,
		ringBase:   cfg.RingBase,
		retireAge:  cfg.RetireAge,
		scanDur:    cfg.ScanDur,
		freeBatch:  cfg.FreeBatch,
		sampleMask: uint64(se - 1),
		traceMask:  uint64(te - 1),
		phases:     cfg.Phases,
		ts:         make([]schemeThread, cfg.Threads),
		pin:        make([][]atomic.Uint64, cfg.Threads),
		pinSince:   make([]atomic.Uint64, cfg.Threads),
	}
	for i := range o.pin {
		o.pin[i] = make([]atomic.Uint64, cfg.Threads)
	}
	return o
}

// Retire records a block retirement (sampled). backlog is the retire-list
// length after the append.
func (o *SchemeObs) Retire(tid int, epoch uint64, backlog int) {
	if o == nil {
		return
	}
	t := &o.ts[tid]
	t.retires++
	if o.rec != nil && t.retires&o.sampleMask == 0 {
		o.rec.Record(o.ringBase+tid, KindRetire, tid, epoch, uint64(backlog))
	}
}

// EpochAdvance records a global-epoch bump to the new value e.
func (o *SchemeObs) EpochAdvance(tid int, e uint64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.Record(o.ringBase+tid, KindEpochAdvance, tid, e, 0)
}

// ScanStart returns the start timestamp of a retire-list scan for the
// matching ScanEnd (0 when the observer is nil — still a valid argument to
// ScanEnd).
func (o *SchemeObs) ScanStart() uint64 {
	if o == nil {
		return 0
	}
	return nowNanos()
}

// ScanEnd records the completion of the scan started at t0: its duration
// into the scan-duration histogram and a scan_end event carrying blocks
// examined and the duration; freed goes to the free-batch histogram and,
// when non-zero, a free_batch event.
func (o *SchemeObs) ScanEnd(tid int, t0 uint64, examined, freed int) {
	if o == nil {
		return
	}
	dur := nowNanos() - t0
	if o.scanDur != nil {
		o.scanDur.Record(dur)
	}
	if o.freeBatch != nil {
		o.freeBatch.Record(uint64(freed))
	}
	if o.rec != nil {
		o.rec.Record(o.ringBase+tid, KindScanEnd, tid, uint64(examined), dur)
		if freed > 0 {
			o.rec.Record(o.ringBase+tid, KindFreeBatch, tid, uint64(examined), uint64(freed))
		}
	}
}

// FreeAgeBatch folds one scan's locally bucketed retire→free ages into the
// age histogram — per-bucket atomics instead of per-block.
func (o *SchemeObs) FreeAgeBatch(counts *BucketCounts, sum uint64) {
	if o == nil || o.retireAge == nil {
		return
	}
	o.retireAge.AddBatch(counts, sum)
}

// Enabled reports whether o is non-nil; core uses it to skip per-block work
// (the age loop) entirely when observability is off.
func (o *SchemeObs) Enabled() bool { return o != nil }

// BlockAlloc records the alloc leg of a traced block's lifecycle span.
// slot is the block's pool slot index — tracing selects slots through the
// TraceEvery mask, so a slot is always traced or never.
func (o *SchemeObs) BlockAlloc(tid int, slot, birth uint64) {
	if o == nil || o.rec == nil || slot&o.traceMask != 0 {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBlockAlloc, tid, birth, slot)
}

// BlockPublish records a traced block's handle being stored into a shared
// pointer — the block became reachable.
func (o *SchemeObs) BlockPublish(tid int, slot uint64) {
	if o == nil || o.rec == nil || slot&o.traceMask != 0 {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBlockPublish, tid, 0, slot)
}

// BlockRetire records a traced block's retirement at epoch retire.
func (o *SchemeObs) BlockRetire(tid int, slot, retire uint64) {
	if o == nil || o.rec == nil || slot&o.traceMask != 0 {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBlockRetire, tid, retire, slot)
}

// BlockKept records a scan individually examining and keeping a traced
// block; witness is the tid of the reservation that pinned it (-1 when the
// scan has no interval witness, e.g. the HP address scan).
func (o *SchemeObs) BlockKept(tid int, slot uint64, witness int) {
	if o == nil || o.rec == nil || slot&o.traceMask != 0 {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBlockKept, tid, uint64(int64(witness)), slot)
}

// BlockFree records a traced block's reclamation; age is its retire→free
// age in epochs.
func (o *SchemeObs) BlockFree(tid int, slot, age uint64) {
	if o == nil || o.rec == nil || slot&o.traceMask != 0 {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBlockFree, tid, age, slot)
}

// BucketSkip records a scan keeping a whole retire bucket on one corner
// test, with the bucket's birth-epoch bounds. The trace encoder uses it to
// explain why traced retired blocks stayed pinned without being examined —
// one event per kept bucket, never a walk of the bucket's blocks.
func (o *SchemeObs) BucketSkip(tid int, birthLo, birthHi uint64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.Record(o.ringBase+tid, KindBucketSkip, tid, birthLo, birthHi)
}

// PhaseStart begins timing one scan phase, returning the start timestamp
// for PhaseEnd (0 when phase timing is off — still a valid argument).
func (o *SchemeObs) PhaseStart() uint64 {
	if o == nil || o.phases == nil {
		return 0
	}
	return nowNanos()
}

// PhaseEnd records the duration of the phase started at t0.
func (o *SchemeObs) PhaseEnd(phase int, t0 uint64) {
	if t0 == 0 || o == nil || o.phases == nil {
		return
	}
	o.phases[phase].Record(nowNanos() - t0)
}

// PinBlame publishes scanner's per-witness kept-block counts from one scan:
// counts[w] is the number of blocks scanner kept because tid w's
// reservation pinned them. Each scanner owns its row and overwrites it
// wholesale, so the exported gauges always reflect every thread's latest
// scan; rows are summed at read time. The first scan that blames a witness
// stamps its pin-since time, and the stamp clears once no scanner blames it
// anymore. A nil counts clears the row.
func (o *SchemeObs) PinBlame(scanner int, counts []uint64) {
	if o == nil || scanner < 0 || scanner >= len(o.pin) {
		return
	}
	row := o.pin[scanner]
	for w := range row {
		var c uint64
		if w < len(counts) {
			c = counts[w]
		}
		row[w].Store(c)
	}
	now := nowNanos()
	for w := range o.pinSince {
		var total uint64
		for s := range o.pin {
			total += o.pin[s][w].Load()
		}
		if total == 0 {
			o.pinSince[w].Store(0)
		} else {
			o.pinSince[w].CompareAndSwap(0, now)
		}
	}
}

// PinnedBlame sums the scanners' blame rows into one PinStat per currently
// blamed tid, sorted by pinned blocks descending — the "who is pinning my
// memory" answer. Safe to call concurrently with scans.
func (o *SchemeObs) PinnedBlame() []PinStat {
	if o == nil || len(o.pin) == 0 {
		return nil
	}
	now := nowNanos()
	var out []PinStat
	for w := range o.pinSince {
		var total uint64
		for s := range o.pin {
			total += o.pin[s][w].Load()
		}
		if total == 0 {
			continue
		}
		st := PinStat{Tid: w, Blocks: total}
		if since := o.pinSince[w].Load(); since != 0 && since < now {
			st.Age = time.Duration(now - since)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocks != out[j].Blocks {
			return out[i].Blocks > out[j].Blocks
		}
		return out[i].Tid < out[j].Tid
	})
	return out
}
