package core

// This file is the tid-transfer surface of the reclamation substrate: the
// primitives that move protection or reclamation state from one thread id
// to another. TransferSlot is the benign, in-operation form (a traversal's
// node roles shift under one tid). AdoptRetired and ClearReservation are the
// dangerous, cross-tid form used by the serving engine's stall quarantine:
// they act on ANOTHER tid's state, which is sound only when that tid's
// holder can be proven to never act under it again (its goroutine is parked
// holding no node references, or has exited). ibrlint's derefguard analyzer
// flags every call outside internal/core, internal/mem and internal/guard,
// and the guard facade has no cross-tid call, so each use site must carry
// an //ibrlint:ignore directive stating that evidence — see DESIGN.md §7
// for the safety argument.

// TransferSlot is a no-op for schemes without per-slot protection (all
// epoch- and interval-based schemes); HP and HE override it.
func (b *base) TransferSlot(tid, from, to int) {}

// AdoptRetired moves every block in from's retire store into to's,
// returning the number of blocks adopted. Both stores keep each bucket's
// retire epochs sorted — the invariant the prefix (EBR) and merge-pointer
// (summarized) scans rely on — so adoption merges bucket-by-bucket: buckets
// with the same birth-epoch key merge their SoA arrays by retire epoch (the
// clock is global and monotone, but the two threads' retirements interleave
// arbitrarily, and a naive append would put an old orphaned backlog after
// to's fresh tail); buckets whose key only one side has move wholesale,
// without copying a block.
//
// The caller must own tid `to` (be its single goroutine) and must have
// established that no goroutine owns `from`: the from-side retire store is
// read without synchronization, exactly like its owner would read it.
func (b *base) AdoptRetired(from, to int) int {
	if from == to {
		return 0
	}
	src := &b.ts[from]
	dst := &b.ts[to]
	n := dst.store.adopt(&src.store)
	if n == 0 {
		return 0
	}
	src.unreclaimed.Store(0)
	dst.unreclaimed.Store(int64(dst.store.count))
	return n
}

// ClearReservation withdraws tid's published reservation on its behalf —
// EndOp executed by someone else. The epoch/interval schemes clear the
// reservation-table entry; HP and HE override it to clear their hazard and
// era slots instead. After the call, no retired block is pinned by tid,
// which is what lets a quarantined staller's backlog drain without waiting
// for the stall to end (the robustness bar of §4.3.1 turned into an
// operation instead of an observation).
func (b *base) ClearReservation(tid int) {
	b.res.At(tid).Clear()
}
