package core

import (
	"sort"
	"sync/atomic"

	"ibr/internal/mem"
)

// HP is Michael's hazard-pointer scheme (§2.3 of the IBR paper; Michael,
// TPDS 2004): before dereferencing a block, a thread publishes the block's
// address in one of its hazard slots, fences, and re-reads the source
// pointer to validate. A reclaimer frees a retired block only if no hazard
// slot holds its address.
//
// HP is robust (a stalled thread pins at most Slots blocks) but pays a
// sequentially-consistent store + re-load on *every* pointer read, and
// requires the data structure to manage slots explicitly (Unreserve) — the
// two costs IBR is designed to avoid.
type HP struct {
	base
	haz [][]hazSlot
}

type hazSlot struct {
	_ [64]byte
	v atomic.Uint64
	_ [56]byte
}

// NewHP builds a hazard-pointer reclaimer with Options.Slots slots per
// thread.
func NewHP(m Memory, o Options) *HP {
	o = o.withDefaults()
	s := &HP{base: newBase("hp", m, o)}
	s.haz = make([][]hazSlot, o.Threads)
	for i := range s.haz {
		s.haz[i] = make([]hazSlot, o.Slots)
	}
	return s
}

// StartOp is a no-op: HP has no per-operation reservation, only per-read
// hazards.
func (s *HP) StartOp(tid int) { s.checkTid(tid) }

// EndOp clears all of tid's hazard slots.
func (s *HP) EndOp(tid int) {
	for i := range s.haz[tid] {
		s.haz[tid][i].v.Store(0)
	}
}

// RestartOp clears all hazard slots; the operation will re-protect from the
// root.
func (s *HP) RestartOp(tid int) { s.EndOp(tid) }

// Alloc allocates a block; HP keeps no epochs.
func (s *HP) Alloc(tid int) mem.Handle { return s.allocPlain(tid, s.Drain) }

// Retire appends to the thread-local list and scans every EmptyFreq
// retirements.
func (s *HP) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read implements the hazard-pointer protocol: loop { load pointer; publish
// address; fence; re-load and validate }. Go's atomic store is sequentially
// consistent, providing the write-read fence of §2.3. Reading a nil pointer
// publishes nothing and leaves the slot untouched (stale over-protection is
// safe; precise slot management is the data structure's job via Unreserve).
func (s *HP) Read(tid, idx int, p *Ptr) mem.Handle {
	slot := &s.haz[tid][idx]
	for {
		h := mem.Handle(p.bits.Load())
		a := h.Addr()
		if a.IsNil() {
			return h
		}
		slot.v.Store(uint64(a)) // publish + implicit fence
		if mem.Handle(p.bits.Load()) == h {
			return h
		}
	}
}

// ReadRoot is Read.
func (s *HP) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return s.Read(tid, idx, p) }

// Unreserve clears hazard slot idx — the explicit "last use" annotation the
// paper's Fig. 1 lists as optional and IBR exists to remove.
func (s *HP) Unreserve(tid, idx int) { s.haz[tid][idx].v.Store(0) }

// Drain runs Michael's scan: snapshot all hazard slots, sort them, and free
// every retired block whose address is not present.
func (s *HP) Drain(tid int) {
	ts := &s.ts[tid]
	snap := ts.scratch[:0]
	for t := range s.haz {
		for i := range s.haz[t] {
			if v := s.haz[t][i].v.Load(); v != 0 {
				snap = append(snap, v)
			}
		}
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	ts.scratch = snap
	s.scan(tid, func(rb retiredBlock) bool {
		return !sortedContains(snap, uint64(rb.h.Addr()))
	})
}

// Robust is true: a stalled thread reserves at most Slots blocks.
func (s *HP) Robust() bool { return true }
