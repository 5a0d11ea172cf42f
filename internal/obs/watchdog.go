package obs

import (
	"sync/atomic"
	"time"
)

// Source is one reservation table the watchdog polls: a scheme instance
// (one engine shard, one benchmark scheme, ...). Epoch returns the
// scheme's current global epoch; Lowers appends the per-slot reserved
// lower endpoints (NoEpoch for idle slots) to buf and returns it. Both are
// called from Tick only.
type Source struct {
	Epoch  func() uint64
	Lowers func(buf []uint64) []uint64
}

// heldState tracks one reservation slot across ticks.
type heldState struct {
	lower   uint64
	since   uint64 // nowNanos when this lower value was first observed
	alerted bool
}

// Watchdog is the live form of the paper's stalled-thread experiment
// (§4.3.1): it polls every source's reservation table and flags any slot
// whose reservation (published by StartOp, withdrawn by EndOp) has kept the
// same lower endpoint past the threshold — the signature of a stalled or
// leaked operation pinning reclamation. Alerts are edge-triggered per stall
// episode: one alert when the threshold is crossed, re-armed when the
// reservation changes or clears. A held slot also drives the stalled-now
// gauge.
//
// The watchdog owns no goroutine: its caller polls it by calling Tick (the
// serving engine's remediator does, once per remediation tick), so the
// detector runs in the same loop as the quarantine it motivates.
type Watchdog struct {
	sources   []Source
	threshold uint64    // ns
	rec       *Recorder // may be nil
	ring      int       // system ring for KindStall events

	held    [][]heldState
	scratch []uint64

	alerts     atomic.Uint64
	stalledNow atomic.Int64
}

// NewWatchdog builds a watchdog over sources. rec/ring locate the system
// ring stall events are written to (Tick's caller is that ring's single
// writer); rec may be nil.
func NewWatchdog(sources []Source, threshold time.Duration, rec *Recorder, ring int) *Watchdog {
	if threshold <= 0 {
		threshold = time.Second
	}
	return &Watchdog{
		sources:   sources,
		threshold: uint64(threshold),
		rec:       rec,
		ring:      ring,
		held:      make([][]heldState, len(sources)),
	}
}

// Alerts returns the total number of stall alerts raised.
func (w *Watchdog) Alerts() uint64 { return w.alerts.Load() }

// Stalled returns the number of reservations currently past the threshold.
func (w *Watchdog) Stalled() int64 { return w.stalledNow.Load() }

// Tick runs one poll pass. Calls must not overlap: Tick mutates the
// per-slot state and writes the system ring.
func (w *Watchdog) Tick() {
	now := nowNanos()
	var stalled int64
	for si := range w.sources {
		src := &w.sources[si]
		epoch := src.Epoch()
		w.scratch = src.Lowers(w.scratch[:0])
		if len(w.held[si]) < len(w.scratch) {
			w.held[si] = append(w.held[si], make([]heldState, len(w.scratch)-len(w.held[si]))...)
		}
		for slot, lo := range w.scratch {
			h := &w.held[si][slot]
			if lo == NoEpoch {
				h.lower, h.alerted = NoEpoch, false
				continue
			}
			if lo != h.lower {
				// New (or renewed) reservation: restart the clock. A thread
				// making progress republishes fresh epochs, so only a truly
				// stuck StartOp keeps the same lower across ticks.
				h.lower, h.since, h.alerted = lo, now, false
			}
			if now-h.since >= w.threshold {
				stalled++
				if !h.alerted {
					h.alerted = true
					w.alerts.Add(1)
					if w.rec != nil {
						w.rec.Record(w.ring, KindStall, slot, epoch, lo)
					}
				}
			}
		}
	}
	w.stalledNow.Store(stalled)
}
