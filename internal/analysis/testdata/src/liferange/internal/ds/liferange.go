// Package ds exercises the range-callback idiom: a visitor callback passed
// into an exported scan entry point is opaque code, so a handle exposed to
// it can be retained past the StartOp/EndOp bracket that protects it. The
// ds.Ranger contract therefore requires visitors to receive values, and
// lifecycle rejects protected-read handles (and worse, retired or expired
// ones) crossing the callback boundary at all — in hand-bracketed scans and
// in Guarded.Do closures alike. Locally bound closures (the recursive-walk
// idiom) and unexported helpers taking package-internal builders stay
// exempt.
package ds

import (
	"stub/internal/core"
	"stub/internal/guard"
	"stub/internal/mem"
)

// ScanValues is the idiomatic scan: one bracket for the whole traversal,
// the visitor sees values copied out of the node. Clean.
func ScanValues(s core.Scheme, p *mem.Pool, head *core.Ptr, tid int, fn func(k, v uint64) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	curr := s.ReadRoot(tid, 0, head)
	for !curr.IsNil() {
		n := p.Get(curr)
		if !fn(n.Key, n.Val) {
			return
		}
		curr = s.Read(tid, 1, head).ClearMarks()
	}
}

// ScanHandles leaks protection: the visitor receives the protected-read
// handle itself, and nothing stops it from stashing the handle past EndOp.
func ScanHandles(s core.Scheme, head *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	curr := s.ReadRoot(tid, 0, head)
	for !curr.IsNil() {
		if !fn(curr) { // want "protected read handle is exposed to a visitor callback"
			return
		}
		curr = s.Read(tid, 1, head).ClearMarks()
	}
}

// ScanGuarded is ScanHandles on the facade: the Do closure inherits its
// exported scan's exposure context, so the leak is caught there too.
func ScanGuarded(w *guard.Guarded, head *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	w.Do(tid, func(g *guard.Guard) {
		curr := g.LoadRoot(0, head)
		fn(curr) // want "protected read handle is exposed to a visitor callback"
	})
}

// ScanRetired hands the visitor a handle this op already retired.
func ScanRetired(s core.Scheme, head *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	curr := s.ReadRoot(tid, 0, head)
	s.Retire(tid, curr)
	fn(curr) // want "handle retired at line 61 is exposed to a visitor callback"
}

// ScanAfterEnd closes the bracket first: the handle's protection has
// already lapsed when the visitor sees it.
func ScanAfterEnd(s core.Scheme, head *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)
	curr := s.ReadRoot(tid, 0, head)
	s.EndOp(tid)
	fn(curr) // want "after EndOp at line 70"
}

// ScanAlloc is clean: the exposed handle is privately allocated this op,
// not a protected read, so its lifetime does not hang on the bracket.
func ScanAlloc(s core.Scheme, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	h := s.Alloc(tid)
	fn(h)
}

// ScanPublished is clean: the handle was written into the structure before
// the exposure, so the callback retaining it observes reachable memory.
func ScanPublished(s core.Scheme, head, dst *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	h := s.ReadRoot(tid, 0, head)
	s.Write(tid, dst, h)
	fn(h)
}

// ScanWalk is the bonsai idiom and clean: the handles flow through a
// recursive closure bound locally (visible code), and the opaque visitor
// only ever sees values.
func ScanWalk(s core.Scheme, p *mem.Pool, head *core.Ptr, tid int, fn func(k, v uint64) bool) {
	s.StartOp(tid)
	defer s.EndOp(tid)
	root := s.ReadRoot(tid, 0, head)
	var walk func(h mem.Handle) bool
	walk = func(h mem.Handle) bool {
		if h.IsNil() {
			return true
		}
		n := p.Get(h)
		return fn(n.Key, n.Val)
	}
	walk(root)
}

// scanBuild mirrors bonsai's update helper and is clean: an unexported
// function's callback parameter is package-internal plumbing — every call
// site passes a literal whose body the analyzer checks on its own.
func scanBuild(s core.Scheme, head *core.Ptr, tid int, build func(root mem.Handle) mem.Handle) bool {
	s.StartOp(tid)
	defer s.EndOp(tid)
	oldRoot := s.ReadRoot(tid, 0, head)
	newRoot := build(oldRoot)
	return s.CompareAndSwap(tid, head, oldRoot, newRoot)
}
