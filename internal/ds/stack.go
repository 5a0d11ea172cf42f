package ds

import (
	"ibr/internal/core"
	"ibr/internal/guard"
)

// Stack is the Treiber lock-free stack (Treiber 1986), cited in §3.1 of the
// paper as the simplest persistent data structure: nodes below the top are
// immutable, and the only mutable pointer is the top-of-stack — so POIBR's
// root-snapshot reservation protects everything a pop can touch.
type Stack struct {
	base[stackNode]
	top core.Ptr
}

type stackNode struct {
	val  uint64
	next core.Ptr
}

// NewStack builds a Treiber stack running under cfg.Scheme.
func NewStack(cfg Config) (*Stack, error) {
	b, err := newBase("stack", cfg, func(n *stackNode) { n.val = ^uint64(0) })
	if err != nil {
		return nil, err
	}
	return &Stack{base: b}, nil
}

// Push adds val to the top. It returns false only on pool exhaustion.
func (st *Stack) Push(tid int, val uint64) (ok bool) {
	st.w.Do(tid, func(g *guard.Guard[stackNode]) {
		h := g.Alloc()
		if h.IsNil() {
			return
		}
		n := g.Deref(h)
		n.val = val
		fails := 0
		for {
			top := g.LoadRoot(0, &st.top)
			g.Publish(&n.next, top)
			if g.CompareAndSwap(&st.top, top, h) {
				ok = true
				return
			}
			if fails++; fails >= restartThreshold {
				fails = 0
				g.Restart() // only the private node is held
			}
		}
	})
	return ok
}

// Pop removes and returns the top value.
func (st *Stack) Pop(tid int) (val uint64, ok bool) {
	st.w.Do(tid, func(g *guard.Guard[stackNode]) {
		fails := 0
		for {
			top := g.LoadRoot(0, &st.top)
			if top.IsNil() {
				return
			}
			n := g.Deref(top)
			next := g.Load(1, &n.next)
			v := n.val
			if g.CompareAndSwap(&st.top, top, next) {
				g.Retire(top)
				val, ok = v, true
				return
			}
			if fails++; fails >= restartThreshold {
				fails = 0
				g.Restart()
			}
		}
	})
	return val, ok
}

// Len counts nodes (quiescence only).
func (st *Stack) Len() (n int) {
	st.w.Do(0, func(g *guard.Guard[stackNode]) {
		for h := st.top.Raw(); !h.IsNil(); h = g.Deref(h).next.Raw() {
			n++
		}
	})
	return n
}
