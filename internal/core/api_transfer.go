package core

// This file is the tid-transfer surface of the reclamation substrate: the
// primitives that move protection within one thread id or withdraw it on
// another's behalf. TransferSlot is the benign, in-operation form (a traversal's node roles
// shift under one tid). ClearReservation is the dangerous, cross-tid form
// used by the serving engine's stall quarantine: it acts on ANOTHER tid's
// reservation, which is sound only when that tid's holder is proven to hold
// no node references and to stay off the scheme until the clear is done
// (an injected staller, parked, with its slot mutex held by the clearing
// goroutine). The protocol boundary test (internal/guard's
// TestProtocolBoundary) fails on every call outside internal/core,
// internal/mem and internal/guard, and the guard facade has no cross-tid
// call, so each use site is allowed there by function name, with that
// evidence as the reason — see DESIGN.md §7 for the safety argument.

// TransferSlot is a no-op for schemes without per-slot protection (all
// epoch- and interval-based schemes); HP and HE override it.
func (b *base) TransferSlot(tid, from, to int) {}

// ClearReservation withdraws tid's published reservation on its behalf —
// EndOp executed by someone else. The epoch/interval schemes clear the
// reservation-table entry; HP and HE override it to clear their hazard and
// era slots instead. After the call, no retired block is pinned by tid,
// which is what lets the backlog a quarantined staller pinned drain without
// waiting for the stall to end (the robustness bar of §4.3.1 turned into an
// operation instead of an observation).
func (b *base) ClearReservation(tid int) {
	b.res.At(tid).Clear()
}
