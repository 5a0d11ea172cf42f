package core

import (
	"sync/atomic"

	"ibr/internal/mem"
)

// NoMM is the paper's "No MM" baseline (§5): it never reclaims memory.
// Retired blocks are counted but leaked, so it has zero synchronization
// overhead and unbounded space — the upper bound on throughput and the
// reason manual reclamation exists at all.
type NoMM struct {
	base
	leaked []paddedCounter
}

type paddedCounter struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}

// NewNoMM builds the leaking baseline.
func NewNoMM(m Memory, o Options) *NoMM {
	return &NoMM{
		base:   newBase("none", m, o),
		leaked: make([]paddedCounter, o.withDefaults().Threads),
	}
}

// StartOp is a no-op: nothing is ever reclaimed, so nothing needs reserving.
func (s *NoMM) StartOp(tid int) { s.checkTid(tid) }

// EndOp is a no-op.
func (s *NoMM) EndOp(tid int) {}

// RestartOp is a no-op.
func (s *NoMM) RestartOp(tid int) {}

// Alloc allocates without epoch stamping; NoMM keeps no epochs at all.
func (s *NoMM) Alloc(tid int) mem.Handle { return s.allocPlain(tid, nil) }

// Retire leaks the block: it is marked retired (so tests can still verify
// lifecycle discipline) and counted, but never freed.
func (s *NoMM) Retire(tid int, h mem.Handle) {
	if h.IsNil() {
		panic("core: retire of nil handle")
	}
	s.mem.MarkRetired(h.Addr())
	s.leaked[tid].n.Add(1)
}

// Read is an uninstrumented load.
func (s *NoMM) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is an uninstrumented load.
func (s *NoMM) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// Drain is a no-op; there is no retire list.
func (s *NoMM) Drain(tid int) {}

// Unreclaimed reports the blocks leaked by tid.
func (s *NoMM) Unreclaimed(tid int) int { return int(s.leaked[tid].n.Load()) }

// Robust is vacuously true (nothing is ever blocked because nothing is
// ever reclaimed), but NoMM is of course unusable long-running.
func (s *NoMM) Robust() bool { return true }
