// Package epoch provides the global epoch clock and the per-thread
// reservation table shared by every epoch- and interval-based reclamation
// scheme in this repository (EBR, HE, POIBR, TagIBR, 2GEIBR).
//
// The clock is the "global epoch counter" of Fig. 2 of the paper; the
// reservation table is the "reservations[thread_cnt]" array. Entries are
// cache-line padded: every thread scans the whole table in empty(), and an
// unpadded layout would put hot per-thread stores on shared lines.
package epoch

import (
	"math"
	"sync/atomic"
)

// None is the reservation value meaning "no epoch reserved" (the paper's
// MAX). Any comparison against a real epoch fails safe: no block is
// protected by an idle thread.
const None uint64 = math.MaxUint64

// Clock is the global epoch counter. As the paper notes (§2.2), a 64-bit
// counter bumped every ~100µs will not overflow in practice.
type Clock struct {
	_ [64]byte
	e atomic.Uint64
	_ [64]byte
}

// NewClock returns a clock starting at epoch 1 (0 is reserved so that a
// zero-valued birth field is always "older than everything", and so the
// hazard-era convention "era 0 = unreserved" works).
func NewClock() *Clock {
	c := &Clock{}
	c.e.Store(1)
	return c
}

// Now returns the current epoch.
func (c *Clock) Now() uint64 { return c.e.Load() }

// Advance atomically increments the epoch (fetch_and_increment in the
// paper) and returns the new value.
func (c *Clock) Advance() uint64 { return c.e.Add(1) }

// Reservation is one thread's published protection: a closed interval
// [Lower, Upper] of epochs. POIBR reserves a single epoch, Lower == Upper;
// EBR and DEBRA publish [e, None], every epoch from e on. An idle thread
// publishes [None, None].
type Reservation struct {
	_     [64]byte
	lower atomic.Uint64
	upper atomic.Uint64
	_     [48]byte
}

// Lower returns the reserved interval's lower endpoint.
func (r *Reservation) Lower() uint64 { return r.lower.Load() }

// Upper returns the reserved interval's upper endpoint.
func (r *Reservation) Upper() uint64 { return r.upper.Load() }

// Set publishes the interval [lo, hi]. The store is sequentially consistent
// (Go atomics), which provides the write-read fence the snapshot idioms of
// Figs. 4–6 rely on.
func (r *Reservation) Set(lo, hi uint64) {
	r.lower.Store(lo)
	r.upper.Store(hi)
}

// SetUpper publishes a new upper endpoint only.
func (r *Reservation) SetUpper(hi uint64) { r.upper.Store(hi) }

// Clear publishes the idle interval.
func (r *Reservation) Clear() { r.Set(None, None) }

// Table is the global reservation array, one padded entry per thread id.
type Table struct {
	res []Reservation
}

// NewTable creates a table of n reservations, all idle.
func NewTable(n int) *Table {
	t := &Table{res: make([]Reservation, n)}
	for i := range t.res {
		t.res[i].Clear()
	}
	return t
}

// Len returns the number of slots.
func (t *Table) Len() int { return len(t.res) }

// At returns thread tid's reservation.
func (t *Table) At(tid int) *Reservation { return &t.res[tid] }

// MinLower scans the table and returns the smallest reserved lower
// endpoint — the "max_safe_epoch" computation of Fig. 2 line 8. Idle
// entries (None) do not constrain the result; if every entry is idle the
// result is None.
func (t *Table) MinLower() uint64 {
	min := None
	for i := range t.res {
		if lo := t.res[i].lower.Load(); lo < min {
			min = lo
		}
	}
	return min
}
