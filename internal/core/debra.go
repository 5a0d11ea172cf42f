package core

import "sync/atomic"

// DEBRA is a neutralization-based EBR in the style of Brown's DEBRA+
// ("Reclaiming memory for lock-free data structures: there has to be a
// better way"; see PAPERS.md). The data path is exactly EBR — reserve the
// epoch at StartOp, uninstrumented reads and writes, limbo-bag rotation on
// retire — so it keeps EBR's speed. The difference is what happens when a
// thread stalls: instead of waiting for the stalled reservation (EBR) or
// paying per-access instrumentation to ignore it (the IBR family), DEBRA+
// *neutralizes* the thread — forcibly ends its operation from outside — and
// the neutralized thread keeps its thread id, detects the signal and
// restarts its operation rather than touching memory that may since have
// been freed.
//
// DEBRA+ delivers the neutralization with a POSIX signal, whose handler
// runs a sigsetjmp/siglongjmp restart. Go offers no safe analogue, but this
// repository already has the machinery the signal stands in for: the
// serving layer's quarantine detects an injected staller parked past its
// threshold (evidence, held under the staller's slot mutex, that the
// goroutine is not mid-dereference), then calls ClearReservation. DEBRA's
// ClearReservation override is the signal handler: it clears the epoch
// reservation AND latches a per-tid neutralized flag. The StartOp
// neutralize-check is the sigsetjmp site: the staller's own next operation
// on that tid consumes the flag before publishing a fresh reservation, so
// the revoked thread resumes only at an operation boundary with a new
// epoch — it can never carry a pointer read under the revoked reservation
// across the neutralization, which is the safety argument spelled out in
// DESIGN.md §8.
//
// Limbo bags: DEBRA segregates retired nodes into per-epoch bags and frees
// whole bags once their epoch is safely behind every reservation. Here the
// single retire list ordered by retire epoch IS that rotation — each run of
// equal retire epochs is one bag, rotation is the epoch advance inside the
// shared retire helper, and the prefix scan (free everything retired before
// the minimum reservation) frees exactly the sequence of expired bags
// without examining the live ones.
//
// The data path is EBR's by embedding: Alloc, Retire, Read, ReadRoot,
// Drain and Robust are promoted from it unchanged.
//
// Robust() is false by the paper's own accounting: neutralization needs an
// external stall detector (the signal there, the remediator's park check
// here), so plain DEBRA — the scheme alone, no serving layer — is EBR and
// inherits its unbounded worst case. The chaos suite demonstrates the
// recovered bound end to end: the backlog a quarantined DEBRA staller
// pinned drains to zero while the stall is still running.
type DEBRA struct {
	EBR
	neut []neutFlag
	// signaled counts ClearReservation neutralizations delivered; observed
	// counts those consumed by a later StartOp on the same tid. observed ≤
	// signaled always; they converge as neutralized stallers start their
	// next stall.
	signaled atomic.Uint64
	observed atomic.Uint64
}

// neutFlag is one tid's neutralization latch, padded so the watchdog
// writing one tid's flag never invalidates a neighbour's StartOp line.
type neutFlag struct {
	_ [64]byte
	v atomic.Bool
	_ [63]byte
}

// NewDEBRA builds a neutralization-based epoch reclaimer.
func NewDEBRA(m Memory, o Options) *DEBRA {
	o = o.withDefaults()
	return &DEBRA{
		EBR:  EBR{base: newBase("debra", m, o)},
		neut: make([]neutFlag, o.Threads),
	}
}

// StartOp is EBR's reservation post with the neutralize-check in front:
// consume a pending neutralization before publishing the new epoch. A
// neutralized thread therefore restarts cleanly — its old reservation is
// already cleared, any pointers it read under it are dead to it, and the
// fresh epoch protects everything the restarted operation will read.
func (s *DEBRA) StartOp(tid int) {
	if s.neut[tid].v.Swap(false) {
		s.observed.Add(1)
	}
	s.base.StartOp(tid)
}

// RestartOp renews the reservation and, like StartOp, consumes a pending
// neutralization — a restart is an operation boundary. The override must
// stay: base.RestartOp calls base.StartOp and would skip the check.
func (s *DEBRA) RestartOp(tid int) { s.StartOp(tid) }

// Neutralized reports whether tid has a delivered-but-unconsumed
// neutralization pending.
func (s *DEBRA) Neutralized(tid int) bool { return s.neut[tid].v.Load() }

// NeutralizeStats returns (signaled, observed): neutralizations delivered
// by ClearReservation and those consumed by a subsequent StartOp.
func (s *DEBRA) NeutralizeStats() (signaled, observed uint64) {
	return s.signaled.Load(), s.observed.Load()
}

// ClearReservation is the neutralization signal: clear tid's reservation
// so reclamation stops waiting on it, and latch the flag the next StartOp
// on that tid will consume. The caller (the quarantine path) must hold
// evidence the tid is not mid-operation on a CPU — parked in a stall, and
// kept from waking until the call returns — which is the same
// precondition DEBRA+ discharges with the signal handler's synchronous
// restart.
func (s *DEBRA) ClearReservation(tid int) {
	s.neut[tid].v.Store(true)
	s.signaled.Add(1)
	s.base.ClearReservation(tid)
}
