package obs

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// slot is one ring entry. Every field is accessed atomically so a snapshot
// can run concurrently with the writer; seq is the per-slot seqlock:
//
//	0          never written
//	2·pos + 1  write of event #pos in progress
//	2·pos + 2  event #pos valid
//
// A reader that observes the same even seq before and after copying the
// payload fields has a consistent event; anything else is a torn read and
// the slot is skipped (the writer lapped the reader — the event is lost to
// that snapshot, never corrupted).
type slot struct {
	seq   atomic.Uint64
	ts    atomic.Uint64
	kt    atomic.Uint64 // Kind<<32 | uint32(tid)
	epoch atomic.Uint64
	value atomic.Uint64
}

// ring is a single-writer fixed-size event buffer. pos is owned by the
// writer (plain read-modify-write would do) but is read by snapshots, so it
// is atomic; padding keeps neighbouring rings' hot words off a shared line.
type ring struct {
	_     [64]byte
	pos   atomic.Uint64 // events ever written to this ring
	slots []slot
	mask  uint64
	_     [64]byte
}

// Recorder is the flight recorder: one ring per writer. Writers are thread
// ids of a scheme (each tid is driven by one goroutine, matching the rings'
// single-writer contract) plus, by convention, one extra ring for a system
// writer such as the watchdog. Recording never blocks and never
// allocates; old events are overwritten, newest-wins.
type Recorder struct {
	rings []ring
}

// NewRecorder creates a recorder with n rings of the given capacity
// (rounded up to a power of two, minimum 8).
func NewRecorder(n, size int) *Recorder {
	if n <= 0 {
		panic("obs: NewRecorder needs at least one ring")
	}
	if size < 8 {
		size = 8
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	r := &Recorder{rings: make([]ring, n)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
		r.rings[i].mask = uint64(size - 1)
	}
	return r
}

// Rings returns the number of rings.
func (r *Recorder) Rings() int { return len(r.rings) }

// Record appends one event to ring i. It must be called by at most one
// goroutine per ring at a time (the single-writer contract).
func (r *Recorder) Record(i int, k Kind, tid int, epoch, value uint64) {
	rg := &r.rings[i]
	pos := rg.pos.Load()
	s := &rg.slots[pos&rg.mask]
	s.seq.Store(2*pos + 1)
	s.ts.Store(nowNanos())
	s.kt.Store(uint64(k)<<32 | uint64(uint32(tid)))
	s.epoch.Store(epoch)
	s.value.Store(value)
	s.seq.Store(2*pos + 2)
	rg.pos.Store(pos + 1)
}

// Written returns the total number of events ever recorded across rings.
func (r *Recorder) Written() uint64 {
	var n uint64
	for i := range r.rings {
		n += r.rings[i].pos.Load()
	}
	return n
}

// Dropped returns the number of events overwritten before any possible
// snapshot: max(0, written - capacity) summed over rings.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for i := range r.rings {
		if w, c := r.rings[i].pos.Load(), uint64(len(r.rings[i].slots)); w > c {
			n += w - c
		}
	}
	return n
}

// Snapshot copies every currently valid event, oldest first, without
// stopping the writers. Events being overwritten during the copy are
// skipped, not torn.
func (r *Recorder) Snapshot() []Event {
	out := make([]Event, 0, 256)
	for ri := range r.rings {
		rg := &r.rings[ri]
		for si := range rg.slots {
			s := &rg.slots[si]
			s1 := s.seq.Load()
			if s1 == 0 || s1&1 == 1 {
				continue
			}
			ev := Event{
				Ring:  ri,
				TS:    s.ts.Load(),
				Epoch: s.epoch.Load(),
				Value: s.value.Load(),
			}
			kt := s.kt.Load()
			if s.seq.Load() != s1 {
				continue // torn: the writer lapped us mid-copy
			}
			ev.Pos = s1/2 - 1
			ev.Kind = Kind(kt >> 32)
			ev.Tid = int(int32(uint32(kt)))
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Ring != out[j].Ring {
			return out[i].Ring < out[j].Ring
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}
