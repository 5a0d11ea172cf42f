// Package ds holds the clean derefguard cases: every protocol touch goes
// through the guard facade, compare-only Ptr loads stay legal, and test
// files are exempt.
package ds

import (
	"stub/internal/core"
	"stub/internal/guard"
	"stub/internal/mem"
)

type Q struct {
	w    *guard.Guarded
	head core.Ptr
}

// Get brackets the traversal with Do and touches nodes through the Guard.
func (q *Q) Get(tid int) (val uint64) {
	q.w.Do(tid, func(g *guard.Guard) {
		for h := g.LoadRoot(0, &q.head); !h.IsNil(); h = mem.Nil {
			if n := g.Deref(h); n.Key != 0 {
				val = n.Val
			}
		}
	})
	return val
}

// Push allocates, links, and publishes through the Guard; a failed CAS
// discards the still-private node.
func (q *Q) Push(tid int) {
	q.w.Do(tid, func(g *guard.Guard) {
		h := g.Alloc()
		g.Deref(h).Key = 1
		if !g.CompareAndSwap(&q.head, mem.Nil, h) {
			g.Discard(h)
		}
	})
}

// changed is a helper: Ptr.Raw and Ptr.FetchOrMarks are compare-only loads,
// legal anywhere (their handles can only be dereferenced through a Guard).
func (q *Q) changed(h mem.Handle) bool {
	q.head.FetchOrMarks(0)
	return q.head.Raw() != h
}

// Quarantine calls a core package function, not a Scheme method: pure
// bookkeeping is not derefguard's concern.
func (q *Q) Quarantine(victim, tid int) int {
	//ibrlint:ignore quarantine: victim verified parked or dead via lease table
	return core.AdoptRetired(q.w.Scheme(), victim, tid)
}
