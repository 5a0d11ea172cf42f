package core

import (
	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// EBR is epoch-based reclamation, the pseudocode of Fig. 2 of the paper: a
// thread reserves the global epoch at start_op, implicitly protecting every
// block not retired before that epoch. It is the fastest scheme and the
// usability baseline IBR matches — but it is not robust: one stalled thread
// pins every block retired at or after its start epoch, without bound.
//
// That reservation is the interval [e, ∞): it conflicts with every block
// retired at or after e, whatever the block's birth. So Fig. 2's empty() is
// Fig. 5's conflict test applied to it, and EBR reclaims through the same
// interval scan as the IBR family. EndOp and the uninstrumented
// Write/CompareAndSwap are base's defaults.
type EBR struct {
	base
}

// NewEBR builds an epoch-based reclaimer.
func NewEBR(m Memory, o Options) *EBR {
	return &EBR{base: newBase("ebr", m, o)}
}

// StartOp reserves [now, ∞) (Fig. 2 line 21): the epoch the operation
// started in, with no upper bound.
func (s *EBR) StartOp(tid int) { s.res.At(tid).Set(s.clock.Now(), epoch.None) }

// RestartOp renews the reservation. Embedded methods do not dispatch, so
// base.RestartOp would publish base's [e, e]; EBR needs its own.
func (s *EBR) RestartOp(tid int) { s.StartOp(tid) }

// Alloc allocates a block. Fig. 2's EBR advances the epoch in retire, not
// alloc, and keeps no birth epochs; Alloc is therefore uninstrumented.
func (s *EBR) Alloc(tid int) mem.Handle { return s.allocPlain(tid, s.Drain) }

// Retire stamps the retire epoch, appends to the thread-local list, and —
// per Fig. 2 lines 15–19 — advances the global epoch every EpochFreq
// retirements and scans every EmptyFreq retirements (both inside the
// shared retire helper).
func (s *EBR) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is an uninstrumented load: EBR's reservation already covers every
// block the operation can reach. This is why EBR is the fast end of the
// spectrum — no per-read work at all.
func (s *EBR) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is Read.
func (s *EBR) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// Drain runs Fig. 2's empty(): free every block retired strictly before
// the earliest reserved epoch. Against open-ended reservations the
// summarized scan frees that prefix with one binary search and keeps the
// rest in one protected-window jump, charged to the oldest reservation.
func (s *EBR) Drain(tid int) { s.scanIntervals(tid) }

// Robust is false: this is the defining weakness of EBR (§1, §2.2).
func (s *EBR) Robust() bool { return false }
