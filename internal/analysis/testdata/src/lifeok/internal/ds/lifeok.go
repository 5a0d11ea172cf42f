// Package ds is the lifecycle analyzer's negative suite: the idioms the
// real data structures use — retire-then-reacquire traversal loops,
// CAS-published private nodes discarded on the failed path, deferred EndOp,
// and the guard facade's bracketed closures — must produce no diagnostics.
package ds

import (
	"stub/internal/core"
	"stub/internal/guard"
	"stub/internal/mem"
)

// helpUnlink mirrors find's marked-node cleanup: the retired handle is
// overwritten before the back edge, so the loop stays clean.
func helpUnlink(s core.Scheme, p *mem.Pool, cells []*core.Ptr, tid int, key uint64) (uint64, bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	curr := s.ReadRoot(tid, 1, cells[0])
	for i := 1; i < len(cells); i++ {
		next := s.Read(tid, 2, cells[i])
		if next.Mark0() {
			if !s.CompareAndSwap(tid, cells[i-1], curr, next.ClearMarks()) {
				continue
			}
			s.Retire(tid, curr)
			curr = next.ClearMarks()
			continue
		}
		if n := p.Get(curr); n.Key == key {
			return n.Val, true
		}
		curr = next.ClearMarks()
	}
	return 0, false
}

// remove mirrors the unlink-then-retire path: retiring a node that was
// structure-published is the protocol's normal reclamation entry.
func remove(s core.Scheme, head *core.Ptr, tid int) bool {
	s.StartOp(tid)
	defer s.EndOp(tid)
	curr := s.ReadRoot(tid, 1, head)
	if curr.IsNil() {
		return false
	}
	next := s.Read(tid, 2, head)
	if !s.CompareAndSwap(tid, head, curr, next.ClearMarks()) {
		return false
	}
	s.Retire(tid, curr)
	return true
}

// insert mirrors the facade port of the list insert: the private node is
// published by CAS only (maybe), so the failed path's Discard of the
// still-private block is legitimate.
func insert(w *guard.Guarded, dst *core.Ptr, tid int, key uint64) bool {
	var ok bool
	w.Do(tid, func(g *guard.Guard) {
		node := g.Alloc()
		if node.IsNil() {
			return
		}
		n := g.Deref(node)
		n.Key = key
		if g.CompareAndSwap(dst, mem.Nil, node) {
			ok = true
			return
		}
		g.Discard(node)
	})
	return ok
}

// traverse mirrors the facade read path: protected loads, derefs, and a
// retire inside one Do bracket.
func traverse(w *guard.Guarded, head *core.Ptr, tid int, key uint64) (uint64, bool) {
	var val uint64
	var found bool
	w.Do(tid, func(g *guard.Guard) {
		curr := g.LoadRoot(1, head)
		for !curr.IsNil() {
			n := g.Deref(curr)
			if n.Key == key {
				val, found = n.Val, true
				return
			}
			next := g.Load(2, head)
			if next.Mark0() {
				if g.CompareAndSwap(head, curr, next.ClearMarks()) {
					g.Retire(curr)
				}
				g.Restart()
			}
			curr = next.ClearMarks()
		}
	})
	return val, found
}

// retireParam mirrors a helper that retires its argument: fine locally —
// the caller-side checks are the summaries' job.
func retireParam(s core.Scheme, tid int, h mem.Handle) {
	s.Retire(tid, h)
}
