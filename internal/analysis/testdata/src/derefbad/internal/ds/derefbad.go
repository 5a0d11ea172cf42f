// Package ds exercises derefguard: raw reservation-protocol calls in the
// data-structure layer instead of the guard facade. Every core.Scheme
// method and every Pool.Get is a finding, bracketed or not, in exported
// entry points and unexported helpers alike.
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
	q.s.StartOp(tid)                   // want "raw Scheme.StartOp in internal/ds: go through internal/guard"
	defer q.s.EndOp(tid)               // want "raw Scheme.EndOp"
	h := q.s.ReadRoot(tid, 0, &q.head) // want "raw Scheme.ReadRoot"
	return q.pool.Get(h).Val           // want "raw Pool.Get"
}

// push is an unexported helper: running under a caller's bracket no longer
// excuses raw calls.
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
