package server

import (
	"time"

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
// OpRange is absent deliberately: its legs are timed in rangeLeg, not by
// the point path.
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
// per scheme tid (plus a system ring the watchdog writes stall events to), a
// per-shard retire→free age histogram, engine-wide scan and latency
// histograms, and the stall watchdog. Every engine builds one; the
// remediator ticks its watchdog.
type EngineObs struct {
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
// attached later (attachWatchdog) once the shards exist.
func newEngineObs(o obs.Options, shards, workers int) *EngineObs {
	eo := &EngineObs{
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

// attachWatchdog builds one stall source per shard — its scheme's epoch
// clock and reservation-table lowers. Schemes that publish no table entries
// (HP, HE, NoMM, Hyaline) leave every lower idle, so their sources never
// alert. The system ring — the recorder's last — takes the stall events;
// the remediator, which calls Tick, is its single writer.
func (eo *EngineObs) attachWatchdog(e *Engine, threshold time.Duration) {
	sources := make([]obs.Source, len(e.shards))
	for i, sh := range e.shards {
		s := sh.inst.Scheme()
		table := s.Reservations()
		sources[i] = obs.Source{
			Epoch: s.Clock().Now,
			Lowers: func(buf []uint64) []uint64 {
				for slot := 0; slot < table.Len(); slot++ {
					buf = append(buf, table.At(slot).Lower())
				}
				return buf
			},
		}
	}
	eo.watchdog = obs.NewWatchdog(sources, threshold, eo.rec, eo.rec.Rings()-1)
}

// quarantineEvent records a staller quarantine into the staller's own
// ring. The recorder is single-writer per ring: the remediator writes it
// under the staller's slot mutex while the staller is parked, and the
// staller writes it only outside a park.
func (eo *EngineObs) quarantineEvent(shard, tid int, epoch uint64) {
	eo.rec.Record(shard*eo.tidsPerShard+tid, obs.KindQuarantine, tid, epoch, 0)
}

// opEvent records a traced request's execution into the executing tid's
// own ring (single-writer: a borrowed tid's ring is written only under its
// lock), joining the wire trace ID to the shard's reclamation timeline.
func (eo *EngineObs) opEvent(shard, tid int, trace, durNs uint64) {
	eo.rec.Record(shard*eo.tidsPerShard+tid, obs.KindOp, tid, durNs, trace)
}

// Recorder returns the flight recorder.
func (eo *EngineObs) Recorder() *obs.Recorder { return eo.rec }

// OpLatency snapshots the latency histogram of one measured op kind
// (latGet/latPut/latDel order, matching latNames).
func (eo *EngineObs) OpLatency(i int) obs.HistSnapshot { return eo.opLat[i].Snapshot() }

// ScanPhase snapshots phase p of the engine-wide scan-phase timing
// breakdown (obs.Phase* order, matching obs.PhaseNames).
func (eo *EngineObs) ScanPhase(p int) obs.HistSnapshot { return eo.phases[p].Snapshot() }
