// Package ds exercises derefguard: raw reservation-protocol calls outside
// internal/core, internal/mem and internal/guard instead of the guard
// facade. Every protocol method of core.Scheme and mem.Pool is a finding —
// bracketed or not, balanced or not, in exported entry points and
// unexported helpers alike — so a leaked bracket, a direct free, an
// unstamped allocation, or a read used after its op's EndOp cannot be
// written here in the first place.
package ds

import (
	"stub/internal/core"
	"stub/internal/guard"
	"stub/internal/mem"
)

type Q struct {
	w    *guard.Guarded
	pool *mem.Pool
	s    core.Scheme
	head core.Ptr
}

// Peek brackets by hand: the bracket is right, but it bypasses the facade.
func (q *Q) Peek(tid int) uint64 {
	q.s.StartOp(tid)                   // want "raw Scheme.StartOp bypasses the guard facade: use Guarded.Do"
	defer q.s.EndOp(tid)               // want "raw Scheme.EndOp"
	h := q.s.ReadRoot(tid, 0, &q.head) // want "raw Scheme.ReadRoot bypasses the guard facade: use Guard.LoadRoot"
	return q.pool.Get(h).Val           // want "raw Pool.Get bypasses the guard facade: use Guard.Deref"
}

// push is an unexported helper: running under a caller's bracket does not
// excuse raw calls.
func (q *Q) push(tid int) {
	h := q.s.Alloc(tid)        // want "raw Scheme.Alloc"
	q.s.Write(tid, &q.head, h) // want "raw Scheme.Write"
}

// Pop mixes the facade with raw calls inside the Do closure: the closure's
// Guard makes the bracket, but the raw calls still skip its touch points.
func (q *Q) Pop(tid int) {
	q.w.Do(tid, func(g *guard.Guard) {
		h := g.LoadRoot(0, &q.head)
		if q.s.CompareAndSwap(tid, &q.head, h, mem.Nil) { // want "raw Scheme.CompareAndSwap"
			q.s.Retire(tid, h) // want "raw Scheme.Retire"
		}
		q.w.Scheme().RestartOp(tid) // want "raw Scheme.RestartOp"
	})
}

// Drain reaches the scheme through the facade's accessor: still raw.
func (q *Q) Drain(tid int) {
	q.w.Scheme().EndOp(tid) // want "raw Scheme.EndOp"
}

// Leak returns early without closing the bracket.
func Leak(s core.Scheme, tid int, abort bool) {
	s.StartOp(tid) // want "raw Scheme.StartOp"
	if abort {
		return
	}
	s.EndOp(tid) // want "raw Scheme.EndOp"
}

// Spawn opens a bracket inside a closure and never closes it.
func Spawn(s core.Scheme, tid int) func() {
	return func() {
		s.StartOp(tid) // want "raw Scheme.StartOp"
	}
}

// SelectLeak returns from one select clause without withdrawing.
func SelectLeak(s core.Scheme, tid int, stop, tick chan struct{}) {
	s.StartOp(tid) // want "raw Scheme.StartOp"
	select {
	case <-stop:
		return
	case <-tick:
	}
	s.EndOp(tid) // want "raw Scheme.EndOp"
}

// Drop frees a detached node directly instead of retiring it.
func (q *Q) Drop(tid int, h mem.Handle) {
	q.pool.Free(tid, h) // want "raw Pool.Free bypasses the guard facade: use Guard.Retire, or Guard.Discard"
}

// DropBatch is the batched variant.
func (q *Q) DropBatch(tid int, hs []mem.Handle) {
	q.pool.FreeBatches(tid, hs) // want "raw Pool.FreeBatches bypasses the guard facade: use Guard.Retire"
}

// Steal clears another tid's reservation with no evidence its holder is
// parked. The facade has no cross-tid call, so only a reasoned directive
// can make this legal.
func Steal(s core.Scheme, victim int) {
	s.ClearReservation(victim) // want "raw Scheme.ClearReservation bypasses the guard facade, which has no equivalent"
}

// Grab bypasses Scheme.Alloc, so its block is never birth-stamped.
func Grab(p *mem.Pool, tid int) mem.Handle {
	h, _ := p.Alloc(tid) // want "raw Pool.Alloc bypasses the guard facade: use Guard.Alloc"
	return h
}

// Restamp writes a block header by hand.
func Restamp(p *mem.Pool, h mem.Handle, e uint64) {
	p.SetBirth(h, e) // want "raw Pool.SetBirth"
}

// ReadAfterEnd dereferences a read handle after the op's EndOp, when the
// reservation no longer protects it.
func ReadAfterEnd(s core.Scheme, p *mem.Pool, head *core.Ptr, tid int) uint64 {
	s.StartOp(tid)                // want "raw Scheme.StartOp"
	h := s.ReadRoot(tid, 0, head) // want "raw Scheme.ReadRoot"
	s.EndOp(tid)                  // want "raw Scheme.EndOp"
	return p.Get(h).Val           // want "raw Pool.Get"
}

// EscapeAfterEnd hands the unprotected read handle to its caller instead.
func EscapeAfterEnd(s core.Scheme, head *core.Ptr, tid int) mem.Handle {
	s.StartOp(tid)                // want "raw Scheme.StartOp"
	h := s.ReadRoot(tid, 0, head) // want "raw Scheme.ReadRoot"
	s.EndOp(tid)                  // want "raw Scheme.EndOp"
	return h
}

// ScanAfterEnd closes the bracket before a visitor sees the handle.
func ScanAfterEnd(s core.Scheme, head *core.Ptr, tid int, fn func(h mem.Handle) bool) {
	s.StartOp(tid)                   // want "raw Scheme.StartOp"
	curr := s.ReadRoot(tid, 0, head) // want "raw Scheme.ReadRoot"
	s.EndOp(tid)                     // want "raw Scheme.EndOp"
	fn(curr)
}
