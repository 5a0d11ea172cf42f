package server

import (
	"strconv"

	"ibr/internal/epoch"
	"ibr/internal/obs"
)

// Latency histogram slots, one per data-path op. Ping is excluded: it never
// touches a shard structure, so it would only dilute the distributions.
const (
	latGet = iota
	latPut
	latDel
	latRange
	latKinds
)

// latNames are the `op` label values of ibr_op_latency_ns. The range slot
// measures one shard LEG's scan (the span a reservation is actually held),
// not the merged client-visible latency — that is the load generator's to
// report.
var latNames = [latKinds]string{"get", "put", "del", "range"}

// latIndex maps a wire op to its latency slot (-1 for ops not measured).
// OpRange is absent deliberately: its legs are timed in execRange, not by
// the worker's generic path.
func latIndex(op Op) int {
	switch op {
	case OpGet:
		return latGet
	case OpPut:
		return latPut
	case OpDel:
		return latDel
	}
	return -1
}

// EngineObs is the engine-wide observability state: one flight-recorder ring
// per worker (plus a system ring the watchdog writes stall events to), a
// per-shard retire→free age histogram, engine-wide scan and latency
// histograms, and the stall watchdog. Built by NewEngine when
// EngineConfig.Obs is set; all methods are safe on a nil receiver, so the
// serving path carries at most one pointer test when observability is off.
type EngineObs struct {
	opts         obs.Options
	rec          *obs.Recorder
	tidsPerShard int              // ring-index stride: shard i, tid t → ring i*tidsPerShard+t
	scheme       []*obs.SchemeObs // per shard
	retireAge    []*obs.Hist      // per shard
	scanDur      *obs.Hist
	freeBatch    *obs.Hist
	phases       *obs.ScanPhases // scan-phase breakdown, shared across shards
	opLat        [latKinds]*obs.Hist
	rangeLen     *obs.Hist // merged result sizes of completed Ranges
	watchdog     *obs.Watchdog
}

// newEngineObs sizes the recorder for shards×workers scheme rings plus one
// trailing system ring and builds the histogram registry. The watchdog is
// attached later (startWatchdog) once the shards exist.
func newEngineObs(o obs.Options, shards, workers int) *EngineObs {
	o = o.WithDefaults()
	eo := &EngineObs{
		opts:         o,
		rec:          obs.NewRecorder(shards*workers+1, o.RingSize),
		tidsPerShard: workers,
		scheme:       make([]*obs.SchemeObs, shards),
		retireAge:    make([]*obs.Hist, shards),
		scanDur:      &obs.Hist{},
		freeBatch:    &obs.Hist{},
		phases:       &obs.ScanPhases{},
		rangeLen:     &obs.Hist{},
	}
	for i := range eo.opLat {
		eo.opLat[i] = &obs.Hist{}
	}
	for i := 0; i < shards; i++ {
		eo.retireAge[i] = &obs.Hist{}
		eo.scheme[i] = obs.NewSchemeObs(obs.SchemeObsConfig{
			Threads:     workers,
			Recorder:    eo.rec,
			RingBase:    i * workers,
			RetireAge:   eo.retireAge[i],
			ScanDur:     eo.scanDur,
			FreeBatch:   eo.freeBatch,
			SampleEvery: o.SampleEvery,
			TraceEvery:  o.TraceEvery,
			Phases:      eo.phases,
		})
	}
	return eo
}

// schemeObs returns shard i's scheme observer (nil when observability is
// off, which core treats as disabled hooks).
func (eo *EngineObs) schemeObs(i int) *obs.SchemeObs {
	if eo == nil {
		return nil
	}
	return eo.scheme[i]
}

// startWatchdog builds stall sources from every shard scheme that exposes an
// epoch clock and a reservation table (the epoch-based schemes; HP and NoMM
// have no interval reservations to go stale) and starts polling. The system
// ring — the recorder's last — takes the stall events.
func (eo *EngineObs) startWatchdog(e *Engine) {
	if eo == nil {
		return
	}
	var sources []obs.Source
	for i, sh := range e.shards {
		s := sh.inst.Scheme()
		c, ok := s.(interface{ Clock() *epoch.Clock })
		if !ok {
			continue
		}
		r, ok := s.(interface{ Reservations() *epoch.Table })
		if !ok {
			continue
		}
		clock, table := c.Clock(), r.Reservations()
		sources = append(sources, obs.Source{
			Label: "shard" + strconv.Itoa(i),
			Epoch: clock.Now,
			Lowers: func(buf []uint64) []uint64 {
				for slot := 0; slot < table.Len(); slot++ {
					buf = append(buf, table.At(slot).Lower())
				}
				return buf
			},
		})
	}
	if len(sources) == 0 {
		return
	}
	eo.watchdog = obs.NewWatchdog(sources, eo.opts.StallThreshold, eo.opts.WatchInterval, eo.rec, eo.rec.Rings()-1)
	eo.watchdog.Start()
}

// quarantineEvent records a tid quarantine into the executing worker's own
// ring — the recorder is single-writer per ring, and the worker running the
// cleanup control op already owns ring shard*tidsPerShard+workerTid.
func (eo *EngineObs) quarantineEvent(shard, workerTid, quarantinedTid int, epoch, adopted uint64) {
	if eo == nil {
		return
	}
	eo.rec.Record(shard*eo.tidsPerShard+workerTid, obs.KindQuarantine, quarantinedTid, epoch, adopted)
}

// opEvent records a traced request's execution into the executing worker's
// own ring (single-writer, like quarantineEvent), joining the wire trace ID
// to the shard's reclamation timeline.
func (eo *EngineObs) opEvent(shard, workerTid int, trace, durNs uint64) {
	if eo == nil {
		return
	}
	eo.rec.Record(shard*eo.tidsPerShard+workerTid, obs.KindOp, workerTid, durNs, trace)
}

// stop halts the watchdog (the recorder and histograms are passive).
func (eo *EngineObs) stop() {
	if eo == nil || eo.watchdog == nil {
		return
	}
	eo.watchdog.Stop()
}

// Recorder returns the flight recorder (nil when observability is off).
func (eo *EngineObs) Recorder() *obs.Recorder {
	if eo == nil {
		return nil
	}
	return eo.rec
}

// Watchdog returns the stall watchdog (nil when observability is off or no
// shard scheme exposes reservations).
func (eo *EngineObs) Watchdog() *obs.Watchdog {
	if eo == nil {
		return nil
	}
	return eo.watchdog
}

// OpLatency snapshots the latency histogram of one measured op kind
// (latGet/latPut/latDel order, matching latNames).
func (eo *EngineObs) OpLatency(i int) obs.HistSnapshot {
	if eo == nil {
		return obs.HistSnapshot{}
	}
	return eo.opLat[i].Snapshot()
}

// ScanPhase snapshots phase p of the engine-wide scan-phase timing
// breakdown (obs.Phase* order, matching obs.PhaseNames).
func (eo *EngineObs) ScanPhase(p int) obs.HistSnapshot {
	if eo == nil {
		return obs.HistSnapshot{}
	}
	return eo.phases[p].Snapshot()
}
