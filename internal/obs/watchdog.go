package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Source is one reservation table the watchdog polls: a scheme instance
// (one engine shard, one benchmark scheme, ...). Epoch returns the
// scheme's current global epoch; Lowers appends the per-slot reserved
// lower endpoints (NoEpoch for idle slots) to buf and returns it. Both are
// called from the watchdog goroutine only.
type Source struct {
	Label  string
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
type Watchdog struct {
	sources   []Source
	threshold uint64 // ns
	interval  time.Duration
	rec       *Recorder // may be nil
	ring      int       // system ring for KindStall events

	held    [][]heldState
	scratch []uint64

	alerts     atomic.Uint64
	stalledNow atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewWatchdog builds a watchdog over sources. rec/ring locate the system
// ring stall events are written to (the watchdog goroutine is that ring's
// single writer); rec may be nil. Call Start to begin polling, or drive
// Tick directly (tests).
func NewWatchdog(sources []Source, threshold, interval time.Duration, rec *Recorder, ring int) *Watchdog {
	if threshold <= 0 {
		threshold = time.Second
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w := &Watchdog{
		sources:   sources,
		threshold: uint64(threshold),
		interval:  interval,
		rec:       rec,
		ring:      ring,
		held:      make([][]heldState, len(sources)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	return w
}

// Start launches the polling goroutine; Stop terminates it.
func (w *Watchdog) Start() {
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
}

// Stop halts polling and waits for the goroutine to exit. Idempotent.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Alerts returns the total number of stall alerts raised.
func (w *Watchdog) Alerts() uint64 { return w.alerts.Load() }

// Stalled returns the number of reservations currently past the threshold.
func (w *Watchdog) Stalled() int64 { return w.stalledNow.Load() }

// Tick runs one poll pass. It is called by the Start goroutine; tests may
// call it directly instead of starting the goroutine (never both at once).
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
