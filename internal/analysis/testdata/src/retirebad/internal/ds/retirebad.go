// Package ds exercises retirefree: direct frees outside the reclamation
// substrate.
package ds

import (
	"stub/internal/core"
	"stub/internal/mem"
)

type T struct {
	pool *mem.Pool
}

// Drop frees a detached node directly instead of retiring it.
func (t *T) Drop(tid int, h mem.Handle) {
	t.pool.Free(tid, h) // want "direct Free bypasses reclamation"
}

// DropBatch is the batched variant.
func (t *T) DropBatch(tid int, hs []mem.Handle) {
	t.pool.FreeBatch(tid, hs) // want "direct FreeBatch bypasses reclamation"
}

// Steal transfers another tid's state with no evidence its holder is parked
// or dead — both cross-tid Scheme methods must be flagged.
func Steal(s core.Scheme, victim, tid int) {
	s.ClearReservation(victim)  // want "cross-tid ClearReservation acts on another thread's reservation state"
	s.AdoptRetired(victim, tid) // want "cross-tid AdoptRetired acts on another thread's reservation state"
}
