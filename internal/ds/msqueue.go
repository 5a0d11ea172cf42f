package ds

import (
	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// Queue is the Michael–Scott lock-free FIFO queue, an extra rideable beyond
// the paper's four (its authors' artifact ships one too). It exercises a
// different reclamation pattern from the search structures: every dequeue
// retires the old dummy node, so the retire rate equals the operation rate.
// Not persistent (the tail node's next field mutates), so POIBR does not
// apply.
type Queue struct {
	base[queueNode]
	head core.Ptr // dummy node
	tail core.Ptr
}

type queueNode struct {
	val  uint64
	next core.Ptr
}

// NewQueue builds a Michael–Scott queue running under cfg.Scheme.
func NewQueue(cfg Config) (*Queue, error) {
	b, err := newBase("msqueue", cfg, func(n *queueNode) { n.val = ^uint64(0) })
	if err != nil {
		return nil, err
	}
	q := &Queue{base: b}
	// Bracket the dummy-node setup like any operation: construction is
	// single-threaded, but a uniform reservation discipline is what the
	// protocol boundary test can check.
	q.w.Do(0, func(g *guard.Guard[queueNode]) {
		dummy := g.Alloc()
		n := g.Deref(dummy)
		n.val = 0
		g.Publish(&n.next, mem.Nil)
		g.Publish(&q.head, dummy)
		g.Publish(&q.tail, dummy)
	})
	return q, nil
}

// Enqueue appends val. It returns false only on pool exhaustion.
func (q *Queue) Enqueue(tid int, val uint64) (ok bool) {
	q.w.Do(tid, func(g *guard.Guard[queueNode]) {
		h := g.Alloc()
		if h.IsNil() {
			return
		}
		n := g.Deref(h)
		n.val = val
		g.Publish(&n.next, mem.Nil)
		for {
			tail := g.Load(0, &q.tail)
			tn := g.Deref(tail)
			next := g.Load(1, &tn.next)
			if q.tail.Raw() != tail {
				continue // tail moved while we looked
			}
			if !next.IsNil() {
				// Tail lags: help swing it, then retry.
				g.CompareAndSwap(&q.tail, tail, next)
				continue
			}
			if g.CompareAndSwap(&tn.next, mem.Nil, h) {
				g.CompareAndSwap(&q.tail, tail, h) // ok to fail: someone helped
				ok = true
				return
			}
		}
	})
	return ok
}

// Dequeue removes and returns the oldest value.
func (q *Queue) Dequeue(tid int) (val uint64, ok bool) {
	q.w.Do(tid, func(g *guard.Guard[queueNode]) {
		for {
			head := g.Load(0, &q.head)
			tail := g.Load(2, &q.tail)
			hn := g.Deref(head)
			next := g.Load(1, &hn.next)
			if q.head.Raw() != head {
				continue // head moved; re-read the triple
			}
			if head.SameAddr(tail) {
				if next.IsNil() {
					return // empty
				}
				// Tail lags behind a half-finished enqueue: help it.
				g.CompareAndSwap(&q.tail, tail, next)
				continue
			}
			v := g.Deref(next).val
			if g.CompareAndSwap(&q.head, head, next) {
				g.Retire(head) // old dummy
				val, ok = v, true
				return
			}
		}
	})
	return val, ok
}

// Len counts queued values (quiescence only).
func (q *Queue) Len() (n int) {
	q.w.Do(0, func(g *guard.Guard[queueNode]) {
		for h := g.Deref(q.head.Raw()).next.Raw(); !h.IsNil(); h = g.Deref(h).next.Raw() {
			n++
		}
	})
	return n
}
