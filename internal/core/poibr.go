package core

import "ibr/internal/mem"

// POIBR is persistent-object IBR, the paper's simplest scheme (Fig. 4,
// §3.1). It applies only to persistent data structures — all pointers but
// the root immutable — such as the Treiber stack or the Bonsai tree. A
// thread reserves the single epoch in which it reads the root; because
// every block reachable from that root was alive in that epoch, the
// reservation's intersection with each block's [birth, retire] interval
// protects the whole reachable snapshot.
//
// Only the root read is instrumented (a snapshot loop, like setting one
// hazard pointer); every interior read is a plain load. This is the
// cheapest robust scheme in the paper, bought by the immutability
// restriction.
//
// StartOp/EndOp/RestartOp are base's epoch reservation (Fig. 4 lines
// 22–24): the StartOp post covers allocations made before the root read,
// and ReadRoot re-posts it. Write/CompareAndSwap are base's uninstrumented
// defaults.
type POIBR struct {
	base
}

// NewPOIBR builds a persistent-object IBR reclaimer.
func NewPOIBR(m Memory, o Options) *POIBR {
	return &POIBR{base: newBase("poibr", m, o)}
}

// Alloc allocates, stamps the birth epoch, and advances the epoch every
// EpochFreq allocations (Fig. 4 lines 9–15).
func (s *POIBR) Alloc(tid int) mem.Handle { return s.allocEpochs(tid, s.Drain) }

// Retire stamps the retire epoch and appends to the retire list (Fig. 4
// lines 16–20).
func (s *POIBR) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is a plain load: interior pointers of a persistent structure are
// immutable, so the root reservation already covers their targets.
func (s *POIBR) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is the snapshot read of Fig. 4 lines 25–30: publish the epoch,
// read the root, and validate that the epoch did not change, guaranteeing
// the root's target was alive in the reserved epoch.
func (s *POIBR) ReadRoot(tid, idx int, p *Ptr) mem.Handle {
	r := s.res.At(tid)
	for {
		e := s.clock.Now()
		r.Set(e, e)
		h := mem.Handle(p.bits.Load())
		if s.clock.Now() == e {
			return h
		}
	}
}

// Drain runs Fig. 4's empty(): free every block whose lifetime interval
// contains no reserved epoch, via the per-scan reservation summary.
func (s *POIBR) Drain(tid int) { s.scanIntervals(tid) }

// Robust is true (Theorem 2).
func (s *POIBR) Robust() bool { return true }
