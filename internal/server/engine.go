package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/epoch"
	"ibr/internal/obs"
)

// Errors returned by Engine.SubmitRequest. In every case the request was NOT
// accepted and its done callback will never run. All three are distinct
// sentinels (errors.Is-comparable) so callers can tell transient overload
// (ErrBusy, ErrShedding — retry with backoff) from shutdown (ErrClosed).
var (
	errClosed = errors.New("server: engine is draining")
	errBusy   = errors.New("server: shard queue full")

	// ErrClosed is returned by SubmitRequest once Close has begun.
	ErrClosed = errClosed
	// ErrBusy is returned by SubmitRequest when the target shard's queue is
	// full.
	ErrBusy = errBusy
	// ErrShedding is returned by SubmitRequest while the target shard's
	// unreclaimed backlog sits above its hard watermark: the shard refuses new
	// work until reclamation catches up, instead of letting a stalled
	// reservation grow the heap without bound. The wire layer reports it as
	// StatusBusy, so clients treat it as backpressure and retry.
	ErrShedding = errors.New("server: shard shedding load (unreclaimed backlog above hard watermark)")
)

// EngineConfig sizes the sharded engine. The zero value of every field
// selects a sensible default (hashmap × tagibr, 8 shards × 2 workers).
type EngineConfig struct {
	// Structure is a ds map registry name (default "hashmap").
	Structure string
	// Scheme is a core scheme registry name (default "tagibr").
	Scheme string
	// Shards is the number of independent ds.Map instances the key space
	// is hashed across (default 8). Each shard has its own node pool,
	// scheme instance, tids and SubmitRequest queue, so shards never
	// contend.
	Shards int
	// WorkersPerShard is the number of goroutines per shard that execute
	// SubmitRequest's queue (default 2). The shard lends WorkersPerShard+1
	// scheme tids to whoever runs a request (see tidSlot).
	WorkersPerShard int
	// QueueDepth bounds each shard's SubmitRequest backlog (default 4096);
	// beyond it SubmitRequest returns ErrBusy. Connection readers run their
	// requests themselves and never queue.
	QueueDepth int

	// EpochFreq, EmptyFreq tune each shard's scheme (see core.Options);
	// zero selects the paper's defaults.
	EpochFreq, EmptyFreq int
	// PoolSlots caps each shard's node pool (0 = mem.DefaultMaxSlots).
	PoolSlots uint64
	// Buckets sets the hash map bucket count per shard (0 = default).
	Buckets int

	// Obs tunes the observability layer — flight recorder, latency/scan/
	// retire-age histograms, and the stall watchdog (see internal/obs).
	// Every engine observes; nil selects the obs.Options defaults.
	Obs *obs.Options

	// Stalled injects the paper's preempted thread (§4.3.1) into the live
	// engine: each shard runs this many staller goroutines, each on a fixed
	// tid of its own (WorkersPerShard onward), that publish a reservation,
	// park for StallFor (default 2s), withdraw it and park again. They serve
	// no requests — they exist to pin reclamation so the lag telemetry and
	// the quarantine remediation can be exercised against a known cause.
	Stalled  int
	StallFor time.Duration

	// SoftWatermark and HardWatermark are fractions of the shard pool's slot
	// capacity (defaults 0.5 and 0.85). Above soft, the remediator scans
	// every borrowed tid's retire list every tick. Above hard, the
	// shard sheds: SubmitRequest returns ErrShedding until the backlog falls
	// back below 90% of the hard cap.
	SoftWatermark, HardWatermark float64
	// QuarantineAfter is how long one park of an injected staller may last
	// before the remediator quarantines it: clears its reservation on its
	// behalf (default 1s). The age is that of the current park; a staller
	// that wakes and parks again starts a fresh one.
	QuarantineAfter time.Duration
	// RemedyInterval is the remediator poll period (default 50ms).
	RemedyInterval time.Duration
	// Deprecated: SpareTids is ignored. Goroutines borrow a shard's fixed
	// set of tids per request, so no tid is held in reserve.
	SpareTids int

	// MaxRangeResults caps one Range's result count (default 65536, the
	// protocol ceiling); a request's Limit of 0 selects it, larger limits
	// clamp to it. A full-limit scan is deliberately large — it is the
	// paper's long-running read, executed inside one reservation interval
	// per shard.
	MaxRangeResults int
	// ExpiryGranularity is the TTL expiry wheel's slot width (default
	// 50ms): deadlines round to it, and expirations lag it by up to one
	// remediator tick. Sub-tick TTL precision is explicitly not a goal.
	ExpiryGranularity time.Duration

	// testExecHook, when set, runs at the top of every point exec with the
	// request's op and key, at the top of every range leg with OpRange and
	// the range's low key, and before every TTL expiry removal with OpDel
	// and the key. Tests use it to inject faults (panics, delays) where a
	// request or an expiry executes; it is deliberately unexported.
	testExecHook func(op Op, key uint64)
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Structure == "" {
		c.Structure = "hashmap"
	}
	if c.Scheme == "" {
		c.Scheme = "tagibr"
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.Stalled < 0 {
		c.Stalled = 0
	}
	if c.StallFor <= 0 {
		c.StallFor = 2 * time.Second
	}
	if c.SoftWatermark == 0 {
		c.SoftWatermark = 0.5
	}
	if c.HardWatermark == 0 {
		c.HardWatermark = 0.85
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = time.Second
	}
	if c.RemedyInterval <= 0 {
		c.RemedyInterval = 50 * time.Millisecond
	}
	if c.MaxRangeResults <= 0 || c.MaxRangeResults > maxRangeLimit {
		c.MaxRangeResults = maxRangeLimit
	}
	if c.ExpiryGranularity <= 0 {
		c.ExpiryGranularity = 50 * time.Millisecond
	}
	var o obs.Options
	if c.Obs != nil {
		o = *c.Obs
	}
	o = o.WithDefaults()
	c.Obs = &o
	return c
}

// request is one SubmitRequest submission waiting in a shard queue. done
// is invoked exactly once, on the worker that ran the request, after its
// tids are released.
type request struct {
	req  Request
	done func(Response)
}

// shard is one slice of the key space: a private structure + scheme, the
// tids it lends, its injected stallers, and SubmitRequest's queue with the
// workers that execute it. A staller keeps its tid for the engine's whole
// life; every other goroutine — connection readers, workers, the
// remediator — reaches a scheme tid only by locking its tidSlot, so the
// scheme's "one goroutine per tid" contract holds no matter how many
// connections the server carries.
type shard struct {
	idx      int
	m        ds.Map
	inst     ds.Instrumented
	q        *reqQueue
	tids     []tidSlot     // the borrowed tids: 0..W−1, then W+S
	next     atomic.Uint32 // rotates borrow's Lock fallback over tids
	stallers []stallSlot
	ops      atomic.Uint64
	wheel    *expiryWheel // TTL expiry (always built; idle when no TTLs arrive)

	// Admission control: softCap/hardCap are the watermark fractions applied
	// to the shard pool's slot capacity; resumeCap is the hysteresis floor
	// (90% of hard) below which shedding ends.
	softCap, hardCap, resumeCap int
	shedding                    atomic.Bool

	// Degradation counters (Stats / /metrics).
	quarantines   atomic.Uint64 // staller reservations cleared (ibr_tid_quarantines_total)
	shed          atomic.Uint64 // requests refused with ErrShedding
	shedEpisodes  atomic.Uint64 // shedding activations
	poolExhausted atomic.Uint64 // Puts answered StatusBusy for pool exhaustion
	deaths        atomic.Uint64 // execution panics recovered (ibr_worker_deaths_total)
	expired       atomic.Uint64 // keys removed by TTL expiry (ibr_expired_total)
	rangeLegs     atomic.Uint64 // range legs executed on this shard
	activeScans   atomic.Int64  // range legs currently inside their reservation
	underScanHW   atomic.Int64  // high-water unreclaimed sampled while a scan was active
}

// noteUnderScan folds one unreclaimed sample, taken while a range leg held
// its reservation, into the shard's high-water mark. The mark is what the
// EXPERIMENTS recipe reads: EBR's grows with scan length, the interval
// schemes' stays bounded.
func (sh *shard) noteUnderScan(un int) {
	for {
		cur := sh.underScanHW.Load()
		if int64(un) <= cur || sh.underScanHW.CompareAndSwap(cur, int64(un)) {
			return
		}
	}
}

// tidSlot is one borrowed scheme tid. Whoever holds mu is the tid's only
// user, and Unlock hands the tid's reservation slot, retire list, allocator
// cache and flight-recorder ring to the next borrower with a happens-before
// edge. Readers and workers take a tid per request (shard.borrow); the
// remediator Locks each in turn to drain it, and tid 0 to run TTL expiry.
type tidSlot struct {
	mu     sync.Mutex
	tid    int
	closed bool // Close has joined the workers: refuse borrowers (guarded by mu)
}

// borrow locks one of sh's tids and returns it, or nil once Close has
// closed them; the caller unlocks t.mu. It TryLocks in index order, tid 0
// first, so a shard that is not saturated keeps retiring onto the same tid,
// whose own scan cadence then keeps its backlog moving. Only when every
// tid is busy does it wait, with Lock, on one of them, rotating which.
func (sh *shard) borrow() *tidSlot {
	var t *tidSlot
	for i := range sh.tids {
		if sh.tids[i].mu.TryLock() {
			t = &sh.tids[i]
			break
		}
	}
	if t == nil {
		t = &sh.tids[sh.next.Add(1)%uint32(len(sh.tids))]
		t.mu.Lock()
	}
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	return t
}

// stallSlot is one injected staller's handshake with the remediator. The
// staller stamps parkedAt under mu once its reservation is published, and
// clears it under mu on waking; the remediator quarantines a park older
// than QuarantineAfter under the same mu, so the staller cannot resume in
// the middle of the clear, and tid never changes hands.
type stallSlot struct {
	mu       sync.Mutex
	tid      int
	parkedAt time.Time // start of the current park; zero while awake
	revoked  bool      // the remediator cleared this park's reservation
}

// Engine is the sharded KV engine behind the server.
type Engine struct {
	cfg        EngineConfig
	shards     []*shard
	tids       int  // scheme tids per shard: W+1 borrowed and S stallers'
	ranging    bool // the structure implements ds.Ranger
	obs        *EngineObs
	closing    atomic.Bool    // Close has begun: admit refuses new requests
	wg         sync.WaitGroup // SubmitRequest's workers
	stallStop  chan struct{}  // nil unless cfg.Stalled > 0
	stallWG    sync.WaitGroup
	remedyStop chan struct{}
	remedyDone chan struct{}
	closeOnce  sync.Once
}

// NewEngine builds the shards and starts every worker, staller, and the
// remediator. The workers idle on their queues until SubmitRequest feeds
// them; connection readers need none of them. Close stops them.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.SoftWatermark <= 0 || cfg.SoftWatermark >= cfg.HardWatermark || cfg.HardWatermark > 1 {
		return nil, fmt.Errorf("server: watermarks must satisfy 0 < soft < hard <= 1, got soft=%v hard=%v",
			cfg.SoftWatermark, cfg.HardWatermark)
	}
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	// The scheme (and the observer's ring layout) is sized for every tid:
	// borrowed 0..W-1, the stallers' W..W+S-1, and one more borrowed last.
	w := cfg.WorkersPerShard
	e.tids = w + cfg.Stalled + 1
	e.obs = newEngineObs(*cfg.Obs, cfg.Shards, e.tids)
	for i := range e.shards {
		m, err := ds.NewMap(cfg.Structure, ds.Config{
			Scheme: cfg.Scheme,
			Core: core.Options{
				Threads:   e.tids,
				EpochFreq: cfg.EpochFreq,
				EmptyFreq: cfg.EmptyFreq,
				Obs:       e.obs.scheme[i],
			},
			PoolSlots: cfg.PoolSlots,
			Buckets:   cfg.Buckets,
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			_, e.ranging = m.(ds.Ranger)
		}
		sh := &shard{
			idx:      i,
			m:        m,
			inst:     m.(ds.Instrumented),
			q:        newReqQueue(cfg.QueueDepth),
			tids:     make([]tidSlot, w+1),
			stallers: make([]stallSlot, cfg.Stalled),
			wheel:    newExpiryWheel(cfg.ExpiryGranularity, time.Now().UnixNano()),
		}
		for j := range sh.tids {
			sh.tids[j].tid = j
		}
		sh.tids[w].tid = e.tids - 1
		for j := range sh.stallers {
			sh.stallers[j].tid = w + j
		}
		cap := sh.inst.PoolStats().Capacity
		sh.softCap = int(float64(cap) * cfg.SoftWatermark)
		sh.hardCap = int(float64(cap) * cfg.HardWatermark)
		sh.resumeCap = sh.hardCap * 9 / 10
		if sh.softCap < 1 {
			sh.softCap = 1
		}
		if sh.hardCap <= sh.softCap {
			sh.hardCap = sh.softCap + 1
		}
		if sh.resumeCap < sh.softCap {
			sh.resumeCap = sh.softCap
		}
		e.shards[i] = sh
	}
	e.obs.attachWatchdog(e, cfg.Obs.StallThreshold)
	for _, sh := range e.shards {
		for j := 0; j < w; j++ {
			e.wg.Add(1)
			go e.worker(sh)
		}
	}
	if cfg.Stalled > 0 {
		e.stallStop = make(chan struct{})
		for _, sh := range e.shards {
			for j := range sh.stallers {
				e.stallWG.Add(1)
				go e.staller(sh, &sh.stallers[j])
			}
		}
	}
	e.remedyStop = make(chan struct{})
	e.remedyDone = make(chan struct{})
	go e.remediator()
	return e, nil
}

// staller is one injected-stall goroutine on its fixed tid: publish a
// reservation, park for StallFor, withdraw, repeat. Exactly the harness's
// stalled worker, running against the serving engine, plus the handshake
// that makes a quarantine safe: it holds no node references while parked,
// says so by stamping parkedAt before blocking, and on waking checks under
// the same mutex whether the remediator cleared the reservation meanwhile.
// If it did, the withdrawal is done and the staller skips its EndOp; under
// debra its own next StartOp consumes the neutralization. The bare
// StartOp/EndOp touch no node, so the protocol boundary test
// (internal/guard) allows this function's raw calls by name.
func (e *Engine) staller(sh *shard, st *stallSlot) {
	defer e.stallWG.Done()
	s := sh.inst.Scheme()
	for {
		s.StartOp(st.tid)
		st.mu.Lock()
		st.parkedAt = time.Now()
		st.mu.Unlock()
		stop := false
		select {
		case <-e.stallStop:
			stop = true
		case <-time.After(e.cfg.StallFor):
		}
		st.mu.Lock()
		revoked := st.revoked
		st.revoked, st.parkedAt = false, time.Time{}
		st.mu.Unlock()
		if !revoked {
			s.EndOp(st.tid)
		}
		if stop {
			return
		}
	}
}

// remediator is the engine's degradation-policy loop and its only
// background loop besides workers and stallers. Every RemedyInterval it
// ticks the stall watchdog, then remedies each shard.
func (e *Engine) remediator() {
	defer close(e.remedyDone)
	ticker := time.NewTicker(e.cfg.RemedyInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.remedyStop:
			return
		case <-ticker.C:
		}
		e.obs.watchdog.Tick()
		now := time.Now()
		for _, sh := range e.shards {
			e.remedy(sh, now)
		}
	}
}

// remedy is one remediator tick on one shard. It (1) applies the admission
// watermarks to the unreclaimed backlog, shedding above hard; (2)
// quarantines every staller parked past QuarantineAfter; (3) when the
// backlog is above soft or a quarantine just unpinned it, drains every
// borrowed tid in turn under its lock, so a tid no request visits is
// scanned all the same; (4) removes the TTL-lapsed
// keys under tid 0, so expiry retires onto the tid requests use most. A
// panic in (2)–(4) is recovered like a request's: one death, and an expiry
// batch re-arms the keys it has not removed.
func (e *Engine) remedy(sh *shard, now time.Time) {
	s := sh.inst.Scheme()
	un := core.TotalUnreclaimed(s, e.tids)
	if un >= sh.hardCap {
		if sh.shedding.CompareAndSwap(false, true) {
			sh.shedEpisodes.Add(1)
		}
	} else if sh.shedding.Load() && un < sh.resumeCap {
		sh.shedding.Store(false)
	}
	// Couple the scheme's adaptive drain to the admission signal: above the
	// soft watermark, space is the binding constraint, so workers stop
	// backing off futile scans and probe at the base EmptyFreq cadence
	// until the backlog recedes.
	s.SetDrainPressure(un >= sh.softCap)

	tid := -1 // the tid at work, for a panic's report
	var due []expEntry
	defer func() {
		if p := recover(); p != nil {
			e.recovered(sh, tid, p)
			// collectDue disarmed the batch: hand back what may not have
			// been removed, or it never expires.
			sh.wheel.requeue(due, time.Now().UnixNano())
		}
	}()
	drain := un >= sh.softCap
	for i := range sh.stallers {
		tid = sh.stallers[i].tid
		if e.quarantine(sh, &sh.stallers[i], now) {
			drain = true
		}
	}
	if drain {
		for i := range sh.tids {
			tid = sh.tids[i].tid
			sh.tids[i].drain(s)
		}
	}
	due = sh.wheel.collectDue(now.UnixNano(), nil)
	if len(due) == 0 {
		return
	}
	t := &sh.tids[0]
	tid = t.tid
	t.mu.Lock()
	defer t.mu.Unlock()
	// Expirations retire through the exact path user deletes take, tagged
	// core.SourceExpiry, so they compete for the same scan capacity.
	s.SetRetireSource(tid, core.SourceExpiry)
	defer s.SetRetireSource(tid, core.SourceUser)
	for len(due) > 0 {
		key := due[0].key
		if h := e.cfg.testExecHook; h != nil {
			h(OpDel, key)
		}
		if key < ds.KeyLimit && sh.m.Remove(tid, key) {
			sh.expired.Add(1)
		}
		due = due[1:]
	}
}

// drain scans t's retire list under its lock, waiting out a borrower.
func (t *tidSlot) drain(s core.Scheme) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Drain(t.tid)
}

// quarantine clears st's reservation if its current park is older than
// QuarantineAfter, and reports whether it did. It holds st.mu throughout,
// so the staller is provably parked holding no node references and cannot
// wake into the clear; the event goes into the staller's own ring, which
// no one else writes while it is parked. The guard facade has no cross-tid
// call, so the protocol boundary test (internal/guard) allows this
// function's raw ClearReservation by name.
func (e *Engine) quarantine(sh *shard, st *stallSlot, now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.revoked || st.parkedAt.IsZero() || now.Sub(st.parkedAt) < e.cfg.QuarantineAfter {
		return false
	}
	st.revoked = true
	s := sh.inst.Scheme()
	s.ClearReservation(st.tid)
	sh.quarantines.Add(1)
	e.obs.quarantineEvent(sh.idx, st.tid, s.Clock().Now())
	return true
}

// recovered accounts one execution panic on tid: the goroutine that ran
// it recovers and keeps the tid in service. Guarded.Do's deferred EndOp
// has already withdrawn any reservation the panic unwound through, and the
// tid keeps its retire list.
func (e *Engine) recovered(sh *shard, tid int, p any) {
	sh.deaths.Add(1)
	fmt.Fprintf(os.Stderr, "server: shard %d tid %d: panic: %v\n%s", sh.idx, tid, p, debug.Stack())
}

// recoverAs is deferred around one execution under tid: a panic becomes
// one death and an INTERNAL answer in *resp.
func (e *Engine) recoverAs(sh *shard, tid int, resp *Response) {
	if p := recover(); p != nil {
		e.recovered(sh, tid, p)
		*resp = Response{Status: StatusInternal}
	}
}

// Obs returns the engine's observability state.
func (e *Engine) Obs() *EngineObs { return e.obs }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// shardFor hashes a key to its shard. The SplitMix64 finalizer decorrelates
// the shard choice from the hash map's in-shard Fibonacci bucket hash, so
// dense key ranges spread over both levels independently.
func shardFor(key uint64, n int) int {
	z := key + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % uint64(n))
}

// SubmitRequest queues one typed operation for its shard's workers. If it
// returns nil, done will be called exactly once, on a worker, after the
// request's tids are released. If it returns ErrClosed, ErrBusy, or
// ErrShedding, the operation was rejected and done is never called. done
// must not block.
//
// A single-key op queues on its key's shard. A Range queues on its low
// key's shard, and the worker that pops it scans every shard in turn —
// keys are hashed across them, so each holds an interleaved slice of the
// interval — and calls done once, with the merged ascending result. A
// non-zero TraceID makes the execution record an op span under it (see
// /debug/trace).
func (e *Engine) SubmitRequest(req Request, done func(Response)) error {
	if !req.Op.valid() {
		return fmt.Errorf("server: invalid op %d", req.Op)
	}
	if err := e.admit(&req); err != nil {
		return err
	}
	return e.shards[shardFor(req.Key, len(e.shards))].q.push(request{req: req, done: done})
}

// DoContext runs one typed operation synchronously, bounded by ctx. A
// context end abandons the wait, not the work: an already accepted request
// still executes and its result is discarded.
func (e *Engine) DoContext(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	ch := make(chan Response, 1)
	if err := e.SubmitRequest(req, func(r Response) { ch <- r }); err != nil {
		return Response{}, err
	}
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// do admits and runs one request on the calling goroutine: a connection
// reader's whole path through the engine. It fails with ErrClosed or
// ErrShedding (see admit), never with ErrBusy: a reader that finds every
// tid of a shard busy waits for one.
func (e *Engine) do(req *Request) (Response, error) {
	if err := e.admit(req); err != nil {
		return Response{}, err
	}
	return e.run(req)
}

// admit is the check every request passes before it runs or queues:
// ErrClosed once Close has begun, ErrShedding while the request's shard —
// for a range, any shard, since a scan pins every shard's oldest epoch for
// its duration — is above its hard watermark. A range that run answers
// without scanning (UNSUPPORTED, BAD_REQUEST) is not shed.
func (e *Engine) admit(req *Request) error {
	if e.closing.Load() {
		return ErrClosed
	}
	shards := e.shards
	if req.Op != OpRange {
		i := shardFor(req.Key, len(e.shards))
		shards = e.shards[i : i+1]
	} else if e.rangeStatus(req) != StatusOK {
		return nil
	}
	for _, sh := range shards {
		if sh.shedding.Load() {
			sh.shed.Add(1)
			return ErrShedding
		}
	}
	return nil
}

// run is the one execution body, whoever calls it — a connection reader,
// a SubmitRequest worker: a point request runs under one tid borrowed from
// its key's shard, a range under each shard's in turn (runRange). A panic
// is recovered per execution: the request is answered INTERNAL, one death
// is counted, and the tid stays in service. run fails only with ErrClosed,
// once Close has closed the tids.
func (e *Engine) run(req *Request) (resp Response, err error) {
	if req.Op == OpRange {
		return e.runRange(req)
	}
	sh := e.shards[shardFor(req.Key, len(e.shards))]
	t := sh.borrow()
	if t == nil {
		return Response{}, ErrClosed
	}
	defer t.mu.Unlock()
	defer e.recoverAs(sh, t.tid, &resp)
	return e.execPoint(sh, t.tid, req), nil
}

// maxSpillCap bounds the batch buffer a worker keeps between queue pops.
// Without it one backlog burst pins a backlog-peak-sized backing array per
// worker for the engine's lifetime; oversized buffers are dropped and the
// next pop starts from a fresh, demand-sized allocation.
const maxSpillCap = 256

// worker is one of a shard's WorkersPerShard executors of SubmitRequest's
// queue: it pops the whole backlog at a time and runs each request through
// run, borrowing tids per request like a connection reader does, until the
// queue is closed and empty.
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	var spill []request
	for {
		batch, ok := sh.q.popAll(spill)
		if !ok {
			return
		}
		for i := range batch {
			r := &batch[i]
			// run cannot fail here: Close closes the tids only after every
			// worker has exited.
			resp, _ := e.run(&r.req)
			r.done(resp)
			*r = request{} // release the done closure promptly
		}
		spill = trimSpill(batch)
	}
}

// execPoint runs a point request under the borrowed tid: exec, then the
// shard's op count, the op's latency sample and, for a traced request, its
// span in tid's ring.
func (e *Engine) execPoint(sh *shard, tid int, req *Request) Response {
	li := latIndex(req.Op)
	var t0 uint64
	if li >= 0 {
		t0 = obs.Now()
	}
	resp := e.exec(sh, tid, req)
	if li >= 0 {
		d := obs.Now() - t0
		e.obs.opLat[li].Record(d)
		if req.TraceID != 0 {
			e.obs.opEvent(sh.idx, tid, req.TraceID, d)
		}
	}
	sh.ops.Add(1)
	return resp
}

// trimSpill recycles batch as the next pop's backing buffer, dropping it
// once a burst has grown it past maxSpillCap.
func trimSpill(batch []request) []request {
	if cap(batch) > maxSpillCap {
		return nil
	}
	return batch
}

// exec runs one point request under tid.
func (e *Engine) exec(sh *shard, tid int, req *Request) Response {
	if h := e.cfg.testExecHook; h != nil {
		h(req.Op, req.Key)
	}
	key := req.Key
	switch req.Op {
	case OpPing:
		return Response{Status: StatusOK, Val: req.Val}
	case OpGet:
		if key >= ds.KeyLimit {
			return Response{Status: StatusBadRequest}
		}
		if v, ok := sh.m.Get(tid, key); ok {
			return Response{Status: StatusOK, Val: v}
		}
		return Response{Status: StatusNotFound}
	case OpPut:
		if key >= ds.KeyLimit {
			return Response{Status: StatusBadRequest}
		}
		if sh.m.Insert(tid, key, req.Val) {
			// Arm (or, for a plain Put, disarm any stale) expiry only after
			// the insert succeeded: Put is insert-if-absent, so a losing Put
			// must not touch the winner's TTL.
			if req.TTL > 0 {
				sh.wheel.schedule(key, expDeadline(req.TTL))
			} else {
				sh.wheel.cancel(key)
			}
			return Response{Status: StatusOK, Val: req.Val}
		}
		// A failed insert is ambiguous: the key may exist, or the node
		// allocation may have failed on an exhausted pool. The scheme
		// records which; exhaustion is overload, not a data answer.
		if sh.inst.Scheme().TakeAllocFailed(tid) {
			sh.poolExhausted.Add(1)
			return Response{Status: StatusBusy}
		}
		return Response{Status: StatusExists}
	case OpDel:
		if key >= ds.KeyLimit {
			return Response{Status: StatusBadRequest}
		}
		if sh.m.Remove(tid, key) {
			sh.wheel.cancel(key)
			return Response{Status: StatusOK}
		}
		return Response{Status: StatusNotFound}
	}
	return Response{Status: StatusBadRequest}
}

// expDeadline converts a TTL into an absolute UnixNano deadline.
func expDeadline(ttl time.Duration) int64 { return time.Now().Add(ttl).UnixNano() }

// Close drains the engine: new requests and Submits fail with ErrClosed,
// every already accepted submission is executed and completed, the
// workers, the remediator and the stallers exit, and each shard's retire
// lists are scanned one last time at quiescence. It is idempotent and safe
// to call concurrently with SubmitRequest and with connection readers.
func (e *Engine) Close() {
	// sync.Once blocks concurrent callers until the drain completes, so
	// every Close returns only once the engine is fully quiescent.
	e.closeOnce.Do(func() {
		e.closing.Store(true)
		for _, sh := range e.shards {
			sh.q.close()
		}
		e.wg.Wait()
		// A reader admitted before the flag may still be on its way to a
		// tid: closing each under its lock waits out a current borrower and
		// turns every later one away, so the final scans below run alone.
		for _, sh := range e.shards {
			for i := range sh.tids {
				t := &sh.tids[i]
				t.mu.Lock()
				t.closed = true
				t.mu.Unlock()
			}
		}
		close(e.remedyStop)
		<-e.remedyDone
		// Withdraw injected stalls next so the final scans can reclaim.
		if e.stallStop != nil {
			close(e.stallStop)
			e.stallWG.Wait()
		}
		for _, sh := range e.shards {
			core.DrainAll(sh.inst.Scheme(), e.tids)
		}
	})
}

// ShardStats is one shard's metrics snapshot.
type ShardStats struct {
	Ops         uint64 // operations completed (a range counts once per shard leg)
	QueueDepth  int    // current SubmitRequest backlog
	Unreclaimed int    // retired-but-unreclaimed blocks (Fig. 9's metric)
	Epoch       uint64 // the shard scheme's current epoch
	EpochLag    uint64 // epoch - oldest reserved lower endpoint, 0 when idle
	Live        uint64 // live slots in the shard's node pool

	// Scan is the shard scheme's reclamation-scan work (zero for NoMM):
	// how often workers scanned their retire lists, how many blocks those
	// scans examined, and how many they freed.
	Scan core.ScanStats

	// Degradation policy: quarantine and admission-control activity.
	Quarantines   uint64 // staller reservations cleared after a park past QuarantineAfter
	Shed          uint64 // requests refused while above the hard watermark
	ShedEpisodes  uint64 // times shedding switched on
	PoolExhausted uint64 // Puts answered StatusBusy on pool exhaustion
	Deaths        uint64 // execution panics recovered on a reader, a worker or the remediator
	Shedding      bool   // currently above the hard watermark

	// Range and TTL activity.
	RangeOps      uint64 // range legs executed on this shard
	ActiveScans   int64  // range legs currently holding a reservation
	UnderScanHW   int64  // peak unreclaimed sampled while a scan was active
	Expired       uint64 // keys removed by TTL expiry
	ExpiryPending int    // keys currently armed in the expiry wheel
	RetiredUser   uint64 // retirements caused by client operations
	RetiredExpiry uint64 // retirements caused by TTL expiry
}

// Stats snapshots every shard. Safe to call concurrently with serving.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		st := ShardStats{
			Ops:           sh.ops.Load(),
			QueueDepth:    sh.q.depth(),
			Unreclaimed:   core.TotalUnreclaimed(sh.inst.Scheme(), e.tids),
			Live:          sh.inst.PoolStats().Live(),
			Quarantines:   sh.quarantines.Load(),
			Shed:          sh.shed.Load(),
			ShedEpisodes:  sh.shedEpisodes.Load(),
			PoolExhausted: sh.poolExhausted.Load(),
			Deaths:        sh.deaths.Load(),
			Shedding:      sh.shedding.Load(),
			RangeOps:      sh.rangeLegs.Load(),
			ActiveScans:   sh.activeScans.Load(),
			UnderScanHW:   sh.underScanHW.Load(),
			Expired:       sh.expired.Load(),
			ExpiryPending: sh.wheel.pending(),
		}
		s := sh.inst.Scheme()
		src := s.RetireSources()
		st.RetiredUser, st.RetiredExpiry = src[core.SourceUser], src[core.SourceExpiry]
		st.Scan = s.ScanStats()
		st.Epoch = s.Clock().Now()
		if lo := s.Reservations().MinLower(); lo != epoch.None && lo <= st.Epoch {
			st.EpochLag = st.Epoch - lo
		}
		out[i] = st
	}
	return out
}
