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
	// StatusBusy, so clients treat it exactly like queue backpressure.
	ErrShedding = errors.New("server: shard shedding load (unreclaimed backlog above hard watermark)")
)

// Control ops are engine-internal requests the remediator enqueues on shard
// queues so that scheme maintenance always runs on a worker, under a worker's
// leased tid. They sit far above the wire op range and never carry a done
// callback.
const (
	opCtlBase Op = 0xF0
	// opCtlDrain: scan the executing worker's retire list now (soft
	// watermark crossed). Also serves as a queue wake-up so idle workers
	// notice drainGen.
	opCtlDrain Op = 0xF0
	// opCtlQuarantine: clean up the quarantined tid in key — clear its
	// reservation, adopt its retire list, return its lease to the free pool.
	opCtlQuarantine Op = 0xF1
	// opCtlExpire: remove the TTL-lapsed keys carried in the request's exp
	// batch. The removals run under the worker's leased tid, tagged
	// core.SourceExpiry, and retire nodes through the exact path user
	// deletes take — expirations compete with client work for the same
	// scan capacity, which is the point.
	opCtlExpire Op = 0xF2
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
	// scheme instance, and worker pool, so shards never contend.
	Shards int
	// WorkersPerShard is the number of tid-leased worker goroutines per
	// shard (default 2).
	WorkersPerShard int
	// QueueDepth bounds each shard's request backlog (default 4096);
	// beyond it SubmitRequest returns ErrBusy.
	QueueDepth int

	// EpochFreq, EmptyFreq, Slots tune each shard's scheme (see
	// core.Options); zero selects the paper's defaults.
	EpochFreq, EmptyFreq, Slots int
	// PoolSlots caps each shard's node pool (0 = mem.DefaultMaxSlots).
	PoolSlots uint64
	// Buckets sets the hash map bucket count per shard (0 = default).
	Buckets int

	// Obs enables the observability layer — flight recorder, latency/scan/
	// retire-age histograms, and the stall watchdog (see internal/obs). Nil
	// disables it: the hooks stay compiled in but cost one pointer test.
	Obs *obs.Options

	// Stalled injects the paper's preempted thread (§4.3.1) into the live
	// engine: each shard runs this many staller goroutines that lease a tid,
	// publish a reservation, park for StallFor (default 2s), and withdraw
	// it. They serve no requests — they exist to pin reclamation so the lag
	// telemetry and the quarantine remediation can be exercised against a
	// known cause.
	Stalled  int
	StallFor time.Duration

	// SoftWatermark and HardWatermark are fractions of the shard pool's slot
	// capacity (defaults 0.5 and 0.85). Above soft, the remediator forces
	// retire-list scans on the shard's workers every tick. Above hard, the
	// shard sheds: SubmitRequest returns ErrShedding until the backlog falls
	// back below 90% of the hard cap.
	SoftWatermark, HardWatermark float64
	// QuarantineAfter is how long a leased tid's holder may stay parked with
	// an unchanged heartbeat before the remediator quarantines the tid —
	// revokes the lease, clears its reservation, and adopts its retire list
	// (default 1s). Dead holders (worker panics) are quarantined on the next
	// tick regardless.
	QuarantineAfter time.Duration
	// RemedyInterval is the remediator poll period (default 50ms).
	RemedyInterval time.Duration
	// SpareTids is how many extra scheme tids each shard keeps unleased
	// (default 2). A quarantine consumes the stalled tid until its cleanup
	// runs; spares are what let a replacement worker or staller start
	// immediately instead of waiting for that cleanup.
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

	// testExecHook, when set, runs at the top of every data-path exec with
	// the request's op and key. Tests use it to inject faults (panics,
	// delays) inside a worker; it is deliberately unexported.
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
	if c.SpareTids <= 0 {
		c.SpareTids = 2
	}
	if c.MaxRangeResults <= 0 || c.MaxRangeResults > maxRangeLimit {
		c.MaxRangeResults = maxRangeLimit
	}
	if c.ExpiryGranularity <= 0 {
		c.ExpiryGranularity = 50 * time.Millisecond
	}
	return c
}

// request is one queued operation. done is invoked exactly once, on the
// shard worker that executed the request; it must not block (connection
// handlers guarantee buffer space via their in-flight cap). Control
// requests (req.Op >= opCtlBase) carry a nil done. A Range's per-shard legs
// carry rng instead of done: the collector invokes the caller's done once
// every leg has reported. An opCtlExpire carries its due-key batch in exp.
type request struct {
	req  Request
	done func(Response)
	rng  *rangeOp
	exp  []expEntry
}

// shard is one slice of the key space: a private structure + scheme +
// lease table + worker pool. Lease-holding goroutines are the only ones
// that ever touch m, each under its leased tid, so the scheme's "one
// goroutine per tid" contract holds no matter how many connections the
// server carries — and survives workers dying and being replaced.
type shard struct {
	idx    int
	m      ds.Map
	inst   ds.Instrumented
	q      *reqQueue
	leases *leaseTable
	ops    atomic.Uint64
	wheel  *expiryWheel // TTL expiry (always built; idle when no TTLs arrive)

	// Admission control: softCap/hardCap are the watermark fractions applied
	// to the shard pool's slot capacity; resumeCap is the hysteresis floor
	// (90% of hard) below which shedding ends.
	softCap, hardCap, resumeCap int
	shedding                    atomic.Bool
	// drainGen forces retire-list scans: the remediator bumps it when the
	// soft watermark is crossed, and every worker drains once per batch in
	// which it observes a new value.
	drainGen atomic.Uint64

	// Degradation counters (Stats / /metrics).
	quarantines   atomic.Uint64 // tids quarantined (ibr_tid_quarantines_total)
	adopted       atomic.Uint64 // retired blocks adopted from quarantined tids
	shed          atomic.Uint64 // Submits refused with ErrShedding
	shedEpisodes  atomic.Uint64 // shedding activations
	poolExhausted atomic.Uint64 // Puts answered StatusBusy for pool exhaustion
	deaths        atomic.Uint64 // worker goroutines lost to panics
	expired       atomic.Uint64 // keys removed by TTL expiry (ibr_expired_total)
	rangeOps      atomic.Uint64 // range legs executed on this shard
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

// Engine is the sharded KV engine behind the server.
type Engine struct {
	cfg        EngineConfig
	shards     []*shard
	tids       int        // scheme tids per shard: workers + stallers + spares
	ranging    bool       // the structure implements ds.Ranger
	obs        *EngineObs // nil when cfg.Obs is nil
	wg         sync.WaitGroup
	stallStop  chan struct{} // nil unless cfg.Stalled > 0
	stallWG    sync.WaitGroup
	remedyStop chan struct{}
	remedyDone chan struct{}
	closeOnce  sync.Once
}

// NewEngine builds the shards and starts every worker, staller, and the
// remediator. The workers idle on their queues until SubmitRequest feeds
// them; Close stops them.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	if !ds.SchemeSupports(cfg.Scheme, cfg.Structure) {
		return nil, fmt.Errorf("server: scheme %q cannot run structure %q", cfg.Scheme, cfg.Structure)
	}
	if cfg.SoftWatermark <= 0 || cfg.SoftWatermark >= cfg.HardWatermark || cfg.HardWatermark > 1 {
		return nil, fmt.Errorf("server: watermarks must satisfy 0 < soft < hard <= 1, got soft=%v hard=%v",
			cfg.SoftWatermark, cfg.HardWatermark)
	}
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	// The scheme (and the observer's ring layout) is sized for every tid a
	// shard can ever lease: workers, injected stallers, and the spares that
	// replacement workers draw from after a quarantine.
	e.tids = cfg.WorkersPerShard + cfg.Stalled + cfg.SpareTids
	if cfg.Obs != nil {
		e.obs = newEngineObs(*cfg.Obs, cfg.Shards, e.tids)
	}
	for i := range e.shards {
		m, err := ds.NewMap(cfg.Structure, ds.Config{
			Scheme: cfg.Scheme,
			Core: core.Options{
				Threads:   e.tids,
				EpochFreq: cfg.EpochFreq,
				EmptyFreq: cfg.EmptyFreq,
				Slots:     cfg.Slots,
				Obs:       e.obs.schemeObs(i),
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
			idx:    i,
			m:      m,
			inst:   m.(ds.Instrumented),
			q:      newReqQueue(cfg.QueueDepth),
			leases: newLeaseTable(e.tids),
			wheel:  newExpiryWheel(cfg.ExpiryGranularity, time.Now().UnixNano()),
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
	e.obs.startWatchdog(e)
	for _, sh := range e.shards {
		for i := 0; i < cfg.WorkersPerShard; i++ {
			tid, gen, ok := sh.leases.acquire(roleWorker)
			if !ok { // cannot happen: table was sized for the workers
				return nil, fmt.Errorf("server: shard %d lease table exhausted at startup", sh.idx)
			}
			e.wg.Add(1)
			go e.worker(sh, tid, gen)
		}
	}
	if cfg.Stalled > 0 {
		e.stallStop = make(chan struct{})
		for _, sh := range e.shards {
			for j := 0; j < cfg.Stalled; j++ {
				e.stallWG.Add(1)
				go e.staller(sh)
			}
		}
	}
	e.remedyStop = make(chan struct{})
	e.remedyDone = make(chan struct{})
	go e.remediator()
	return e, nil
}

// staller is one injected-stall goroutine: lease a tid, publish a
// reservation, park for StallFor, withdraw, repeat. Exactly the harness's
// stalled worker, running against the serving engine — but under the lease
// protocol: it declares itself parked before blocking (it holds no node
// references, so clearing its reservation on its behalf is safe), and on
// waking it re-checks the lease. If the remediator quarantined the tid
// while it slept, it walks away without touching the scheme and leases a
// fresh tid for the next stall cycle.
func (e *Engine) staller(sh *shard) {
	defer e.stallWG.Done()
	s := sh.inst.Scheme()
	for {
		tid, gen, ok := sh.leases.acquire(roleStaller)
		if !ok {
			// Every tid is leased or awaiting cleanup; retry shortly.
			select {
			case <-e.stallStop:
				return
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		for {
			//ibrlint:ignore quarantine: if the lease is revoked while parked, EndOp is the remediator's job (ClearReservation), not ours
			s.StartOp(tid)
			sh.leases.setParked(tid, gen, true)
			stop := false
			select {
			case <-e.stallStop:
				stop = true
			case <-time.After(e.cfg.StallFor):
			}
			if sh.leases.unpark(tid, gen) {
				s.EndOp(tid)
				if stop {
					sh.leases.release(tid, gen)
					return
				}
				continue
			}
			// Quarantined while parked: the reservation is no longer ours
			// to withdraw. Abandon the tid.
			if stop {
				return
			}
			break
		}
	}
}

// remediator is the engine's degradation-policy loop. Every RemedyInterval
// it, per shard: (1) applies the admission watermarks to the unreclaimed
// backlog — forcing scans above soft, shedding above hard; (2) scans the
// lease table for holders that are dead, or parked past QuarantineAfter
// with an unchanged heartbeat, and quarantines their tids (cleanup runs on
// a worker via a control op); (3) spawns replacement workers for
// quarantined worker tids so the shard keeps serving at full width.
func (e *Engine) remediator() {
	defer close(e.remedyDone)
	ticker := time.NewTicker(e.cfg.RemedyInterval)
	defer ticker.Stop()
	// Per-shard, per-tid staleness tracking: a park observation only ages
	// while the heartbeat stays put.
	type track struct {
		beat     uint64
		since    time.Time
		tracking bool
	}
	states := make([][]track, len(e.shards))
	snaps := make([][]leaseInfo, len(e.shards))
	deficit := make([]int, len(e.shards))
	for i := range states {
		states[i] = make([]track, e.tids)
	}
	for {
		select {
		case <-e.remedyStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for si, sh := range e.shards {
			s := sh.inst.Scheme()

			un := core.TotalUnreclaimed(s, e.tids)
			if un >= sh.hardCap {
				if sh.shedding.CompareAndSwap(false, true) {
					sh.shedEpisodes.Add(1)
				}
			} else if sh.shedding.Load() && un < sh.resumeCap {
				sh.shedding.Store(false)
			}
			if un >= sh.softCap {
				sh.drainGen.Add(1)
				sh.q.pushControl(request{req: Request{Op: opCtlDrain}})
				// Couple the scheme's adaptive drain to the admission signal:
				// above the soft watermark, space is the binding constraint,
				// so workers stop backing off futile scans and probe at the
				// base EmptyFreq cadence until the backlog recedes.
				core.SetDrainPressure(s, true)
			} else {
				core.SetDrainPressure(s, false)
			}

			// TTL expiry: collect the keys whose deadline passed and hand
			// them to a worker as one control batch. Collection is cheap
			// (the wheel only walks slots the clock crossed), and execution
			// on a worker keeps the one-goroutine-per-tid contract — the
			// remediator never touches the structure itself.
			if due := sh.wheel.collectDue(now.UnixNano(), nil); len(due) > 0 {
				if !sh.q.pushControl(request{req: Request{Op: opCtlExpire}, exp: due}) {
					// Queue closed under us (shutdown race): re-arm the batch
					// so the collect isn't a silent drop.
					sh.wheel.requeue(due, now.UnixNano())
				}
			}

			snaps[si] = sh.leases.snapshot(snaps[si])
			for tid, info := range snaps[si] {
				tr := &states[si][tid]
				switch {
				case info.status == leaseHeld && info.dead:
					e.tryQuarantine(sh, tid, info.role, &deficit[si])
					tr.tracking = false
				case info.status == leaseHeld && info.parked:
					if !tr.tracking || tr.beat != info.beat {
						*tr = track{beat: info.beat, since: now, tracking: true}
					} else if now.Sub(tr.since) >= e.cfg.QuarantineAfter {
						e.tryQuarantine(sh, tid, info.role, &deficit[si])
						tr.tracking = false
					}
				default:
					tr.tracking = false
				}
			}

			// Replacements are spawned here — never from the cleanup op —
			// so a shard whose every worker died still recovers: the new
			// worker is what will execute the pending quarantine cleanups.
			for deficit[si] > 0 {
				tid, gen, ok := sh.leases.acquire(roleWorker)
				if !ok {
					break // no free tid until a cleanup completes; retry next tick
				}
				e.wg.Add(1)
				go e.worker(sh, tid, gen)
				deficit[si]--
			}
		}
	}
}

// tryQuarantine revokes tid's lease if the holder is still verifiably out
// of the scheme, then enqueues the cleanup control op. Worker tids add to
// the shard's replacement deficit.
func (e *Engine) tryQuarantine(sh *shard, tid int, role leaseRole, deficit *int) {
	if !sh.leases.quarantine(tid) {
		return
	}
	sh.quarantines.Add(1)
	sh.q.pushControl(request{req: Request{Op: opCtlQuarantine, Key: uint64(tid)}})
	if role == roleWorker {
		*deficit++
	}
}

// Obs returns the engine's observability state, nil when disabled.
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

// SubmitRequest enqueues one typed operation. If it returns nil, done will
// be called exactly once — usually on a shard worker, but semantic
// rejections (an unsupported or malformed Range) answer synchronously, so
// done must tolerate running on the submitting goroutine. If it returns
// ErrClosed, ErrBusy, or ErrShedding, the operation was rejected and done
// is never called. done must not block.
//
// Single-key ops go to their key's shard. A Range fans out to EVERY shard —
// keys are hashed across them, so each holds an interleaved slice of the
// interval — and done fires once, with the merged ascending result, after
// the last shard leg completes. When observability is on, a non-zero
// TraceID makes the executing worker record an op span under it (see
// /debug/trace).
func (e *Engine) SubmitRequest(req Request, done func(Response)) error {
	if !req.Op.valid() {
		return fmt.Errorf("server: invalid op %d", req.Op)
	}
	if req.Op == OpRange {
		return e.submitRange(req, done)
	}
	sh := e.shards[shardFor(req.Key, len(e.shards))]
	if sh.shedding.Load() {
		sh.shed.Add(1)
		return ErrShedding
	}
	return sh.q.push(request{req: req, done: done})
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

// maxSpillCap bounds the batch buffer a worker keeps between queue pops.
// Without it one backlog burst pins a backlog-peak-sized backing array per
// worker for the engine's lifetime; oversized buffers are dropped and the
// next pop starts from a fresh, demand-sized allocation.
const maxSpillCap = 256

// worker is one leased executor: it owns scheme tid `tid` (generation gen)
// of sh's scheme until it exits or its lease is revoked, and is — with its
// sibling lease holders — the only goroutine that ever calls into sh.m. It
// drains the shard queue in batches until the queue is closed and empty.
//
// A panic anywhere in the serving path does not take the shard down: the
// worker marks its lease dead (the remediator quarantines the tid, adopts
// its retire backlog, and spawns a replacement), answers its unfinished
// batch with StatusInternal so no client blocks, and exits.
func (e *Engine) worker(sh *shard, tid int, gen uint64) {
	defer e.wg.Done()
	var (
		batch []request
		cur   int
	)
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		sh.deaths.Add(1)
		sh.leases.markDead(tid, gen)
		fmt.Fprintf(os.Stderr, "server: shard %d worker tid %d died: %v\n%s", sh.idx, tid, p, debug.Stack())
		for ; cur < len(batch); cur++ {
			r := &batch[cur]
			if r.rng != nil {
				r.rng.finish(e, sh, nil, Response{Status: StatusInternal})
			} else if r.done != nil {
				r.done(Response{Status: StatusInternal})
			} else if len(r.exp) > 0 {
				// An expiry batch this worker never (fully) executed:
				// collectDue already disarmed the keys, so hand them back to
				// the wheel or they never expire. The batch at `cur` may be
				// partially done — re-arming an already-removed key is
				// harmless (its removal just fails on the next pass).
				sh.wheel.requeue(r.exp, time.Now().UnixNano())
			}
		}
	}()
	var spill []request
	lastDrain := sh.drainGen.Load()
	for {
		var ok bool
		batch, ok = sh.q.popAll(spill)
		if !ok {
			sh.leases.release(tid, gen)
			return
		}
		// Heartbeat: the remediator reads this to tell a busy worker from a
		// wedged one before trusting the parked flag.
		sh.leases.beat(tid)
		if g := sh.drainGen.Load(); g != lastDrain {
			lastDrain = g
			sh.inst.Scheme().Drain(tid)
		}
		for cur = 0; cur < len(batch); cur++ {
			r := &batch[cur]
			if r.req.Op >= opCtlBase {
				e.execCtl(sh, tid, r)
				batch[cur] = request{}
				continue
			}
			if r.rng != nil {
				e.execRange(sh, tid, r)
				sh.ops.Add(1)
				batch[cur] = request{}
				continue
			}
			var resp Response
			if eo := e.obs; eo != nil {
				if li := latIndex(r.req.Op); li >= 0 {
					t0 := obs.Now()
					resp = e.exec(sh, tid, r)
					d := obs.Now() - t0
					eo.opLat[li].Record(d)
					if r.req.TraceID != 0 {
						eo.opEvent(sh.idx, tid, r.req.TraceID, d)
					}
				} else {
					resp = e.exec(sh, tid, r)
				}
			} else {
				resp = e.exec(sh, tid, r)
			}
			sh.ops.Add(1)
			r.done(resp)
			batch[cur] = request{} // release the done closure promptly
		}
		spill = trimSpill(batch)
	}
}

// trimSpill recycles batch as the next pop's backing buffer, dropping it
// once a burst has grown it past maxSpillCap.
func trimSpill(batch []request) []request {
	if cap(batch) > maxSpillCap {
		return nil
	}
	return batch
}

// exec runs one request under the worker's leased tid.
func (e *Engine) exec(sh *shard, tid int, r *request) Response {
	if h := e.cfg.testExecHook; h != nil {
		h(r.req.Op, r.req.Key)
	}
	key := r.req.Key
	switch r.req.Op {
	case OpPing:
		return Response{Status: StatusOK, Val: r.req.Val}
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
		if sh.m.Insert(tid, key, r.req.Val) {
			// Arm (or, for a plain Put, disarm any stale) expiry only after
			// the insert succeeded: Put is insert-if-absent, so a losing Put
			// must not touch the winner's TTL.
			if r.req.TTL > 0 {
				sh.wheel.schedule(key, expDeadline(r.req.TTL))
			} else {
				sh.wheel.cancel(key)
			}
			return Response{Status: StatusOK, Val: r.req.Val}
		}
		// A failed insert is ambiguous: the key may exist, or the node
		// allocation may have failed on an exhausted pool. The scheme
		// records which; exhaustion is overload, not a data answer.
		if core.AllocFailed(sh.inst.Scheme(), tid) {
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

// execCtl runs one control request under the worker's leased tid. The
// quarantine cleanup lives here — on a worker, not on the remediator — so
// the adopting tid is owned by the executing goroutine and the scheme's
// one-goroutine-per-tid contract holds throughout.
func (e *Engine) execCtl(sh *shard, tid int, r *request) {
	s := sh.inst.Scheme()
	switch r.req.Op {
	case opCtlDrain:
		s.Drain(tid)
	case opCtlExpire:
		// Tag the batch's retirements as expiry-driven, then remove through
		// the ordinary structure path: each removal retires its node into
		// this worker's retire list exactly as a client delete would, so
		// expirations and user deletes compete for the same scan capacity.
		core.SetRetireSource(s, tid, core.SourceExpiry)
		for _, en := range r.exp {
			if en.key < ds.KeyLimit && sh.m.Remove(tid, en.key) {
				sh.expired.Add(1)
			}
		}
		core.SetRetireSource(s, tid, core.SourceUser)
	case opCtlQuarantine:
		qt := int(r.req.Key)
		// Re-verify under the lease lock: a concurrent cleanup of the same
		// tid (duplicate control op) or Close may have resolved it already.
		if !sh.leases.cleanable(qt) {
			return
		}
		// Safe: the lease table proved qt's holder parked (holding no node
		// references) or dead before revoking the lease, and revocation
		// means the holder will never act under qt again.
		//ibrlint:ignore quarantine: holder verified parked or dead via lease table before revocation
		core.ClearReservation(s, qt)
		//ibrlint:ignore quarantine: qt is revoked and this worker owns tid, the adopting side
		n := core.AdoptRetired(s, qt, tid)
		sh.adopted.Add(uint64(n))
		sh.leases.finishQuarantine(qt)
		// The adopted backlog was pinned by qt's own reservation; with that
		// cleared, one scan usually returns it to the pool wholesale.
		s.Drain(tid)
		var ep uint64
		if c, ok := s.(interface{ Clock() *epoch.Clock }); ok {
			ep = c.Clock().Now()
		}
		e.obs.quarantineEvent(sh.idx, tid, qt, ep, uint64(n))
	}
}

// Close drains the engine: new Submits fail with ErrClosed, every already
// accepted request is executed and completed, the remediator, stallers and
// workers exit, and each shard's retire lists are scanned one last time at
// quiescence. It is idempotent and safe to call concurrently with
// SubmitRequest.
func (e *Engine) Close() {
	// sync.Once blocks concurrent callers until the drain completes, so
	// every Close returns only once the engine is fully quiescent.
	e.closeOnce.Do(func() {
		// The remediator stops first: it is the only goroutine that spawns
		// workers, so after remedyDone the worker set can only shrink and
		// wg.Wait below cannot race a spawn.
		close(e.remedyStop)
		<-e.remedyDone
		// Withdraw injected stalls next so the final scans can reclaim.
		if e.stallStop != nil {
			close(e.stallStop)
			e.stallWG.Wait()
		}
		for _, sh := range e.shards {
			sh.q.close()
		}
		e.wg.Wait()
		for _, sh := range e.shards {
			// Quarantines whose cleanup op never ran (queue closed under
			// them, or every worker died) are resolved here, at quiescence:
			// no goroutine acts under any tid anymore, so the transfer
			// preconditions hold trivially.
			s := sh.inst.Scheme()
			for tid := 0; tid < e.tids; tid++ {
				if !sh.leases.cleanable(tid) {
					continue
				}
				//ibrlint:ignore quarantine: engine is quiescent, no goroutine owns any tid
				core.ClearReservation(s, tid)
				//ibrlint:ignore quarantine: engine is quiescent, no goroutine owns any tid
				n := core.AdoptRetired(s, tid, 0)
				sh.adopted.Add(uint64(n))
				sh.leases.finishQuarantine(tid)
			}
			core.DrainAll(s, e.tids)
		}
		e.obs.stop()
	})
}

// ShardStats is one shard's metrics snapshot.
type ShardStats struct {
	Ops         uint64 // operations completed
	QueueDepth  int    // current backlog
	Unreclaimed int    // retired-but-unreclaimed blocks (Fig. 9's metric)
	Epoch       uint64 // the shard scheme's current epoch (0 if epoch-free)
	EpochLag    uint64 // epoch - oldest reserved lower endpoint, 0 when idle
	Live        uint64 // live slots in the shard's node pool

	// Scan is the shard scheme's reclamation-scan work (zero for NoMM):
	// how often workers scanned their retire lists, how many blocks those
	// scans examined, and how many they freed.
	Scan core.ScanStats

	// Degradation policy: quarantine and admission-control activity.
	Quarantines   uint64 // tids quarantined (stalled or dead holders)
	Adopted       uint64 // retired blocks adopted from quarantined tids
	Shed          uint64 // Submits refused while above the hard watermark
	ShedEpisodes  uint64 // times shedding switched on
	PoolExhausted uint64 // Puts answered StatusBusy on pool exhaustion
	Deaths        uint64 // worker goroutines lost to panics
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
			Adopted:       sh.adopted.Load(),
			Shed:          sh.shed.Load(),
			ShedEpisodes:  sh.shedEpisodes.Load(),
			PoolExhausted: sh.poolExhausted.Load(),
			Deaths:        sh.deaths.Load(),
			Shedding:      sh.shedding.Load(),
			RangeOps:      sh.rangeOps.Load(),
			ActiveScans:   sh.activeScans.Load(),
			UnderScanHW:   sh.underScanHW.Load(),
			Expired:       sh.expired.Load(),
			ExpiryPending: sh.wheel.pending(),
		}
		s := sh.inst.Scheme()
		src := core.RetireSources(s)
		st.RetiredUser, st.RetiredExpiry = src[core.SourceUser], src[core.SourceExpiry]
		if sc, ok := s.(interface{ ScanStats() core.ScanStats }); ok {
			st.Scan = sc.ScanStats()
		}
		if c, ok := s.(interface{ Clock() *epoch.Clock }); ok {
			st.Epoch = c.Clock().Now()
			if r, ok := s.(interface{ Reservations() *epoch.Table }); ok {
				if lo := r.Reservations().MinLower(); lo != epoch.None && lo <= st.Epoch {
					st.EpochLag = st.Epoch - lo
				}
			}
		}
		out[i] = st
	}
	return out
}
