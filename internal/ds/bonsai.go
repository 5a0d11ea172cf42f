package ds

import (
	"fmt"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// Bonsai is a lock-free variant of the Bonsai tree (Clements, Kaashoek &
// Zeldovich, ASPLOS 2012): a *persistent*, weight-balanced binary search
// tree, the fourth rideable of the IBR paper's evaluation (§5). Every
// update builds a fresh copy of the root-to-target path (plus any rotation
// nodes) and publishes it with a single CAS on the root pointer; all
// pointers except the root are immutable. That makes it the natural
// workload for POIBR (§3.1), whose only instrumented read is the root
// snapshot — and it is why the paper's Fig. 8d/9d include POIBR and omit
// HP/HE (rebalancing touches an unbounded number of nodes, which
// fixed-slot pointer schemes cannot protect).
//
// Balancing follows Adams' weight-balanced algorithm with the proven
// integer parameters ⟨Δ=3, Γ=2⟩ over weights w(t) = size(t)+1.
type Bonsai struct {
	w    *guard.Guarded[bonsaiNode]
	root core.Ptr
	ops  []*bonsaiOp
}

// bonsaiNode is immutable after publication; temp is a private build-time
// field (index+1 in the creating operation's created list) and is zeroed
// before the node becomes reachable.
type bonsaiNode struct {
	key, val uint64
	size     uint64
	temp     uint64
	left     core.Ptr
	right    core.Ptr
}

func bonsaiPoison(n *bonsaiNode) { n.key = ^uint64(0); n.val = ^uint64(0) }

const (
	wbDelta = 3 // sibling weight ratio that triggers a rotation
	wbRatio = 2 // inner/outer weight ratio that selects a double rotation
)

// NewBonsai builds a Bonsai tree running under cfg.Scheme.
func NewBonsai(cfg Config) (*Bonsai, error) {
	popt := mem.Options[bonsaiNode]{Threads: cfg.Core.Threads, MaxSlots: cfg.PoolSlots}
	if cfg.Poison {
		popt.Poison = bonsaiPoison
	}
	pool := mem.New[bonsaiNode](popt)
	s, err := core.New(cfg.Scheme, pool, cfg.Core)
	if err != nil {
		return nil, err
	}
	t := &Bonsai{w: guard.New(s, pool), ops: make([]*bonsaiOp, cfg.Core.Threads)}
	for i := range t.ops {
		t.ops[i] = &bonsaiOp{}
	}
	return t, nil
}

// bonsaiOp is one thread's scratch state for building a new version:
// created tracks private nodes (freed wholesale if the publish CAS fails),
// replaced tracks published nodes copied out of the new version (retired
// wholesale if the publish succeeds). g is the bracket of the operation
// currently using the scratch state.
type bonsaiOp struct {
	g        *guard.Guard[bonsaiNode]
	created  []mem.Handle
	replaced []mem.Handle
	failed   bool // allocator exhausted mid-build
}

func (op *bonsaiOp) reset() {
	op.created = op.created[:0]
	op.replaced = op.replaced[:0]
	op.failed = false
}

func (op *bonsaiOp) read(p *core.Ptr) mem.Handle {
	return op.g.Load(0, p)
}

func (op *bonsaiOp) wt(h mem.Handle) uint64 {
	if h.IsNil() {
		return 1
	}
	return op.g.Deref(h).size + 1
}

// mk builds a private node. On allocator exhaustion it sets failed and
// returns Nil; callers propagate outward and the operation fails cleanly.
func (op *bonsaiOp) mk(key, val uint64, l, r mem.Handle) mem.Handle {
	h := op.g.Alloc()
	if h.IsNil() {
		op.failed = true
		return mem.Nil
	}
	n := op.g.Deref(h)
	n.key, n.val = key, val
	n.size = op.wt(l) + op.wt(r) - 1 // = size(l)+size(r)+1
	n.temp = uint64(len(op.created)) + 1
	op.g.Publish(&n.left, l)
	op.g.Publish(&n.right, r)
	op.created = append(op.created, h)
	return h
}

// open disassembles a node for rebuilding. A private (just-created) node is
// freed on the spot — it was never reachable; a published node is recorded
// for retirement after a successful publish.
func (op *bonsaiOp) open(h mem.Handle) (key, val uint64, l, r mem.Handle) {
	n := op.g.Deref(h)
	key, val = n.key, n.val
	l, r = op.read(&n.left), op.read(&n.right)
	if n.temp != 0 {
		idx := n.temp - 1
		last := len(op.created) - 1
		op.created[idx] = op.created[last]
		op.g.Deref(op.created[idx]).temp = idx + 1
		op.created = op.created[:last]
		op.g.Discard(h)
	} else {
		op.replaced = append(op.replaced, h)
	}
	return
}

// seal zeroes the private temp fields; it must run before the publish CAS
// so readers of the new version never observe build-time state.
func (op *bonsaiOp) seal() {
	for _, h := range op.created {
		op.g.Deref(h).temp = 0
	}
}

func (op *bonsaiOp) freeCreated() {
	for _, h := range op.created {
		op.g.Discard(h) // the publish CAS failed: every created node stayed private
	}
	op.created = op.created[:0]
	op.replaced = op.replaced[:0]
}

func (op *bonsaiOp) retireReplaced() {
	for _, h := range op.replaced {
		op.g.Retire(h)
	}
	op.replaced = op.replaced[:0]
}

// balance is Adams' smart constructor: it builds a node for (key, val, l, r)
// and restores the weight-balance invariant with a single or double
// rotation if one side has grown too heavy (the caller changed a subtree by
// at most one element).
func (op *bonsaiOp) balance(key, val uint64, l, r mem.Handle) mem.Handle {
	if op.failed {
		return mem.Nil
	}
	lw, rw := op.wt(l), op.wt(r)
	switch {
	case lw+rw <= 3: // at most one real child: always balanced
		return op.mk(key, val, l, r)
	case rw > wbDelta*lw: // right too heavy: rotate left
		rk, rv, rl, rr := op.open(r)
		if op.wt(rl) < wbRatio*op.wt(rr) {
			return op.mk(rk, rv, op.mk(key, val, l, rl), rr)
		}
		rlk, rlv, rll, rlr := op.open(rl)
		return op.mk(rlk, rlv, op.mk(key, val, l, rll), op.mk(rk, rv, rlr, rr))
	case lw > wbDelta*rw: // left too heavy: rotate right
		lk, lv, ll, lr := op.open(l)
		if op.wt(lr) < wbRatio*op.wt(ll) {
			return op.mk(lk, lv, ll, op.mk(key, val, lr, r))
		}
		lrk, lrv, lrl, lrr := op.open(lr)
		return op.mk(lrk, lrv, op.mk(lk, lv, ll, lrl), op.mk(key, val, lrr, r))
	default:
		return op.mk(key, val, l, r)
	}
}

// insert returns the root of a new version containing key→val, or
// (h, false) if the key was already present (no nodes consumed).
func (op *bonsaiOp) insert(h mem.Handle, key, val uint64) (mem.Handle, bool) {
	if h.IsNil() {
		return op.mk(key, val, mem.Nil, mem.Nil), true
	}
	n := op.g.Deref(h)
	switch {
	case key == n.key:
		return h, false
	case key < n.key:
		nl, ok := op.insert(op.read(&n.left), key, val)
		if !ok || op.failed {
			return h, false
		}
		k, v, _, r := op.open(h)
		return op.balance(k, v, nl, r), true
	default:
		nr, ok := op.insert(op.read(&n.right), key, val)
		if !ok || op.failed {
			return h, false
		}
		k, v, l, _ := op.open(h)
		return op.balance(k, v, l, nr), true
	}
}

// remove returns the root of a new version without key, or (h, false) if
// the key was absent.
func (op *bonsaiOp) remove(h mem.Handle, key uint64) (mem.Handle, bool) {
	if h.IsNil() {
		return h, false
	}
	n := op.g.Deref(h)
	switch {
	case key < n.key:
		nl, ok := op.remove(op.read(&n.left), key)
		if !ok || op.failed {
			return h, false
		}
		k, v, _, r := op.open(h)
		return op.balance(k, v, nl, r), true
	case key > n.key:
		nr, ok := op.remove(op.read(&n.right), key)
		if !ok || op.failed {
			return h, false
		}
		k, v, l, _ := op.open(h)
		return op.balance(k, v, l, nr), true
	default: // found: glue the children
		_, _, l, r := op.open(h)
		switch {
		case l.IsNil():
			return r, true
		case r.IsNil():
			return l, true
		case op.wt(l) > op.wt(r):
			mk, mv, l2 := op.extractMax(l)
			return op.balance(mk, mv, l2, r), true
		default:
			mk, mv, r2 := op.extractMin(r)
			return op.balance(mk, mv, l, r2), true
		}
	}
}

func (op *bonsaiOp) extractMax(h mem.Handle) (key, val uint64, rest mem.Handle) {
	k, v, l, r := op.open(h)
	if r.IsNil() {
		return k, v, l
	}
	mk, mv, r2 := op.extractMax(r)
	return mk, mv, op.balance(k, v, l, r2)
}

func (op *bonsaiOp) extractMin(h mem.Handle) (key, val uint64, rest mem.Handle) {
	k, v, l, r := op.open(h)
	if l.IsNil() {
		return k, v, r
	}
	mk, mv, l2 := op.extractMin(l)
	return mk, mv, op.balance(k, v, l2, r)
}

// Name returns "bonsai".
func (t *Bonsai) Name() string { return "bonsai" }

// update runs one copy-and-publish round trip per attempt until the root
// CAS lands (or the operation is a no-op).
func (t *Bonsai) update(tid int, build func(op *bonsaiOp, root mem.Handle) (mem.Handle, bool)) (ok bool) {
	t.w.Do(tid, func(g *guard.Guard[bonsaiNode]) {
		op := t.ops[tid]
		op.g = g
		fails := 0
		for {
			op.reset()
			oldRoot := g.LoadRoot(0, &t.root)
			newRoot, changed := build(op, oldRoot)
			if op.failed || !changed {
				// Allocator exhausted (fail the operation) or a no-op, where
				// freeing is defensive: build leaves nothing behind.
				op.freeCreated()
				return
			}
			op.seal()
			if g.CompareAndSwap(&t.root, oldRoot, newRoot) {
				op.retireReplaced()
				ok = true
				return
			}
			op.freeCreated()
			fails++
			if fails >= restartThreshold {
				fails = 0
				g.Restart() // no shared references held here
			}
		}
	})
	return ok
}

// Insert adds key→val; false if present.
func (t *Bonsai) Insert(tid int, key, val uint64) bool {
	checkKey(key)
	return t.update(tid, func(op *bonsaiOp, root mem.Handle) (mem.Handle, bool) {
		return op.insert(root, key, val)
	})
}

// Remove deletes key; false if absent.
func (t *Bonsai) Remove(tid int, key uint64) bool {
	checkKey(key)
	return t.update(tid, func(op *bonsaiOp, root mem.Handle) (mem.Handle, bool) {
		return op.remove(root, key)
	})
}

// Get returns the value bound to key by traversing one immutable snapshot.
func (t *Bonsai) Get(tid int, key uint64) (val uint64, found bool) {
	checkKey(key)
	t.w.Do(tid, func(g *guard.Guard[bonsaiNode]) {
		h := g.LoadRoot(0, &t.root)
		for !h.IsNil() {
			n := g.Deref(h)
			switch {
			case key == n.key:
				val, found = n.val, true
				return
			case key < n.key:
				h = g.Load(0, &n.left)
			default:
				h = g.Load(0, &n.right)
			}
		}
	})
	return val, found
}

// Fill bulk-loads pairs (single-threaded) through the normal insert path.
func (t *Bonsai) Fill(pairs []KV) {
	for _, kv := range pairs {
		t.Insert(0, kv.Key, kv.Val)
	}
}

// Keys returns the ascending key set (quiescence only).
func (t *Bonsai) Keys() (out []uint64) {
	t.w.Do(0, func(g *guard.Guard[bonsaiNode]) {
		var walk func(h mem.Handle)
		walk = func(h mem.Handle) {
			if h.IsNil() {
				return
			}
			n := g.Deref(h)
			walk(n.left.Raw())
			out = append(out, n.key)
			walk(n.right.Raw())
		}
		walk(t.root.Raw())
	})
	return out
}

// Validate checks the structural invariants at quiescence: BST order,
// accurate sizes, and the ⟨Δ,Γ⟩ weight-balance bound. Tests call it after
// concurrent stress.
func (t *Bonsai) Validate() (err error) {
	t.w.Do(0, func(g *guard.Guard[bonsaiNode]) {
		var walk func(h mem.Handle, lo, hi uint64) (uint64, error)
		walk = func(h mem.Handle, lo, hi uint64) (uint64, error) {
			if h.IsNil() {
				return 0, nil
			}
			n := g.Deref(h)
			if n.key < lo || n.key >= hi {
				return 0, fmt.Errorf("bonsai: key %d outside (%d,%d)", n.key, lo, hi)
			}
			ls, err := walk(n.left.Raw(), lo, n.key)
			if err != nil {
				return 0, err
			}
			rs, err := walk(n.right.Raw(), n.key+1, hi)
			if err != nil {
				return 0, err
			}
			if n.size != ls+rs+1 {
				return 0, fmt.Errorf("bonsai: node %d size %d, want %d", n.key, n.size, ls+rs+1)
			}
			lw, rw := ls+1, rs+1
			if lw+rw > 4 && (lw > wbDelta*rw || rw > wbDelta*lw) {
				return 0, fmt.Errorf("bonsai: node %d unbalanced (weights %d/%d)", n.key, lw, rw)
			}
			return ls + rs + 1, nil
		}
		_, err = walk(t.root.Raw(), 0, ^uint64(0))
	})
	return err
}

// Scheme exposes the reclamation scheme.
func (t *Bonsai) Scheme() core.Scheme { return t.w.Scheme() }

// PoolStats exposes allocator counters.
func (t *Bonsai) PoolStats() mem.Stats { return t.w.Pool().Stats() }

// Range calls fn in ascending key order for every pair with from <= key <=
// to, over one immutable snapshot of the tree: the traversal observes a
// single linearization point (the root read) regardless of concurrent
// updates — the signature capability of a persistent structure under
// interval-based reclamation, impossible to get this cheaply from the
// mutable rideables. fn returning false stops the scan.
func (t *Bonsai) Range(tid int, from, to uint64, fn func(key, val uint64) bool) {
	t.w.Do(tid, func(g *guard.Guard[bonsaiNode]) {
		var walk func(h mem.Handle) bool
		walk = func(h mem.Handle) bool {
			if h.IsNil() {
				return true
			}
			n := g.Deref(h)
			if n.key > from {
				if !walk(g.Load(0, &n.left)) {
					return false
				}
			}
			if n.key >= from && n.key <= to {
				if !fn(n.key, n.val) {
					return false
				}
			}
			if n.key < to {
				return walk(g.Load(0, &n.right))
			}
			return true
		}
		walk(g.LoadRoot(0, &t.root))
	})
}
