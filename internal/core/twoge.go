package core

import "ibr/internal/mem"

// TwoGE is two-global-epochs IBR (Fig. 6, §3.3): TagIBR's interval
// reservation without any tag in (or near) the pointer. On each read the
// thread raises its upper endpoint to the *current global epoch* instead of
// the pointer's born-before value — a coarser bound (the target was alive
// now, hence born before now) that keeps pointers at native width and adds
// no write-side instrumentation at all.
//
// 2GEIBR trades precision for portability: its intervals grow faster than
// TagIBR's (every read under a new epoch widens them), but it needs no
// WCAS, no type-preserving allocator, and no extra CAS per write. The
// paper's results show it within noise of the other IBRs in time, with
// slightly larger space.
//
// StartOp/EndOp/RestartOp (the interval [e, e] posted at start_op) and the
// uninstrumented Write/CompareAndSwap (Fig. 6: "write and CAS same as in
// default (no instrumentation)") are base's defaults.
type TwoGE struct {
	base
}

// NewTwoGE builds a two-global-epochs IBR reclaimer.
func NewTwoGE(m Memory, o Options) *TwoGE {
	return &TwoGE{base: newBase("2geibr", m, o)}
}

// Alloc allocates, stamps the birth epoch, and advances the epoch every
// EpochFreq allocations (shared with TagIBR, Fig. 5 lines 30–36).
func (s *TwoGE) Alloc(tid int) mem.Handle { return s.allocEpochs(tid, s.Drain) }

// Retire stamps the retire epoch and appends to the retire list.
func (s *TwoGE) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is the snapshot read of Fig. 6, in the publish-first form (see the
// package comment): if the current epoch is already covered by the
// published upper endpoint, a pointer loaded now points to a block born no
// later than that endpoint; otherwise raise the endpoint and retry. The
// fast path (epoch unchanged since the last read) performs no store.
func (s *TwoGE) Read(tid, idx int, p *Ptr) mem.Handle {
	r := s.res.At(tid)
	for {
		h := mem.Handle(p.bits.Load())
		e := s.clock.Now()
		if e <= r.Upper() {
			return h
		}
		r.SetUpper(e)
	}
}

// ReadRoot is Read.
func (s *TwoGE) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return s.Read(tid, idx, p) }

// Drain runs empty() (shared with TagIBR): free every block whose lifetime
// intersects no reserved interval, via the per-scan reservation summary.
func (s *TwoGE) Drain(tid int) { s.scanIntervals(tid) }

// Robust is true (Theorem 2).
func (s *TwoGE) Robust() bool { return true }
