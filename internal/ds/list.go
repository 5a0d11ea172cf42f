package ds

import (
	"sort"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// listNode is a Harris–Michael list node. The mark bit of §9.8 of Herlihy &
// Shavit (Harris's "logical deletion") lives in the *next pointer's* mark0
// bit, as in the original algorithms: a node whose next pointer is marked
// is logically deleted.
type listNode struct {
	key, val uint64
	next     core.Ptr
}

// listPoison plants an impossible key so any traversal through a freed node
// is caught by tests (application keys are < KeyLimit).
func listPoison(n *listNode) { n.key = ^uint64(0); n.val = ^uint64(0) }

// listCore implements the Harris–Michael ordered-list algorithm over an
// arbitrary head pointer. It backs both the List structure (one head) and
// Michael's hash map (one head per bucket), mirroring how the paper's
// artifact composes them.
//
// All protocol traffic goes through the guard facade: each public operation
// opens a reservation bracket with w.Do, and the Guard it receives is the
// only handle touch point inside.
//
// Protection-slot discipline (HP/HE): slot 0 guards prev, slot 1 guards
// curr, slot 2 guards next; slots rotate as the traversal advances. Every
// other scheme ignores the slot numbers.
type listCore struct {
	base[listNode]
}

// Protection slot roles for the list traversal.
const (
	slotPrev = 0
	slotCurr = 1
	slotNext = 2
)

// restartThreshold is the §4.3.1 starvation bound: after this many failed
// CAS/validation retries an operation renews its reservation (Restart)
// before restarting from the head.
const restartThreshold = 16

// findResult carries the window returned by find: prev is the pointer cell
// whose target is curr (or would be, for an insertion point).
type findResult struct {
	prev  *core.Ptr
	curr  mem.Handle // unmarked
	found bool
	// slot indices protecting prev's node and curr after rotation
	prevSlot, currSlot, nextSlot int
}

// find locates the window (prev, curr) for key per Michael's algorithm:
// curr is the first unmarked node with curr.key >= key. It unlinks (and
// retires) any marked nodes it encounters. fails counts retries for the
// Restart cadence and persists across restarts within one operation.
func (lc *listCore) find(g *guard.Guard[listNode], head *core.Ptr, key uint64, fails *int) findResult {
retry:
	if *fails >= restartThreshold {
		*fails = 0
		g.Restart()
	}
	pp, cc, nn := slotPrev, slotCurr, slotNext
	prev := head
	curr := g.LoadRoot(cc, prev).ClearMarks()
	for {
		if curr.IsNil() {
			return findResult{prev: prev, curr: mem.Nil, found: false, prevSlot: pp, currSlot: cc, nextSlot: nn}
		}
		currNode := g.Deref(curr)
		next := g.Load(nn, &currNode.next)
		// Validate: prev must still point to curr, unmarked. A raw load
		// suffices — the value is only compared, never dereferenced.
		if pv := prev.Raw(); pv.Mark0() || pv.ClearMarks() != curr {
			*fails++
			goto retry
		}
		if next.Mark0() {
			// curr is logically deleted: unlink it. Whoever wins the CAS
			// owns the retirement.
			if !g.CompareAndSwap(prev, curr, next.ClearMarks()) {
				*fails++
				goto retry
			}
			g.Retire(curr)
			curr = next.ClearMarks()
			cc, nn = nn, cc // next's protection slot now guards curr
			continue
		}
		if k := currNode.key; k >= key {
			return findResult{prev: prev, curr: curr, found: k == key, prevSlot: pp, currSlot: cc, nextSlot: nn}
		}
		prev = &currNode.next
		pp, cc, nn = cc, nn, pp // rotate: curr becomes prev, next slot is reused
		curr = next.ClearMarks()
	}
}

// insert adds key→val into the list at head.
func (lc *listCore) insert(tid int, head *core.Ptr, key, val uint64) bool {
	var ok bool
	lc.w.Do(tid, func(g *guard.Guard[listNode]) {
		node := mem.Nil
		fails := 0
		for {
			r := lc.find(g, head, key, &fails)
			if r.found {
				if !node.IsNil() {
					g.Discard(node)
				}
				return
			}
			if node.IsNil() {
				node = g.Alloc()
				if node.IsNil() {
					return // allocator exhausted; fail the operation
				}
				n := g.Deref(node)
				n.key, n.val = key, val
			}
			// Link our private node to the window, then publish.
			g.Publish(&g.Deref(node).next, r.curr)
			if g.CompareAndSwap(r.prev, r.curr, node) {
				ok = true
				return
			}
			fails++
		}
	})
	return ok
}

// remove deletes key from the list at head.
func (lc *listCore) remove(tid int, head *core.Ptr, key uint64) bool {
	var ok bool
	lc.w.Do(tid, func(g *guard.Guard[listNode]) {
		fails := 0
		for {
			r := lc.find(g, head, key, &fails)
			if !r.found {
				return
			}
			currNode := g.Deref(r.curr)
			next := g.Load(r.nextSlot, &currNode.next)
			if next.Mark0() {
				// Another remover beat us to the logical delete.
				fails++
				continue
			}
			// Logical delete: mark curr's next pointer.
			if !g.CompareAndSwap(&currNode.next, next, next.WithMark0()) {
				fails++
				continue
			}
			// Physical unlink; on failure a later find will clean up (and
			// that find's thread will retire the node).
			if g.CompareAndSwap(r.prev, r.curr, next.ClearMarks()) {
				g.Retire(r.curr)
			}
			ok = true
			return
		}
	})
	return ok
}

// get looks key up in the list at head. It reuses find, so it helps unlink
// marked nodes like the artifact's Michael-list contains.
func (lc *listCore) get(tid int, head *core.Ptr, key uint64) (val uint64, found bool) {
	lc.w.Do(tid, func(g *guard.Guard[listNode]) {
		fails := 0
		r := lc.find(g, head, key, &fails)
		if !r.found {
			return
		}
		val, found = g.Deref(r.curr).val, true
	})
	return val, found
}

// fill bulk-loads sorted unique pairs into an empty chain at head,
// single-threaded. Links are written through the scheme so TagIBR tags and
// WCAS packed epochs are consistent.
func (lc *listCore) fill(head *core.Ptr, pairs []KV) {
	lc.w.Do(0, func(g *guard.Guard[listNode]) {
		prev := head
		for _, kv := range pairs {
			h := g.Alloc()
			if h.IsNil() {
				panic("ds: pool exhausted during Fill")
			}
			n := g.Deref(h)
			n.key, n.val = kv.Key, kv.Val
			g.Publish(&n.next, mem.Nil)
			g.Publish(prev, h)
			prev = &n.next
		}
	})
}

// keys walks the chain at quiescence, returning unmarked keys in order.
func (lc *listCore) keys(head *core.Ptr, out []uint64) []uint64 {
	lc.w.Do(0, func(g *guard.Guard[listNode]) {
		for h := head.Raw().ClearMarks(); !h.IsNil(); {
			n := g.Deref(h)
			next := n.next.Raw()
			if !next.Mark0() { // skip logically deleted stragglers
				out = append(out, n.key)
			}
			h = next.ClearMarks()
		}
	})
	return out
}

// List is the Harris–Michael sorted linked list (§5 "ordered list of Harris
// and Michael"): the paper's pointer-chasing-heavy workload, where TagIBR's
// cheap reads shine against hazard pointers.
type List struct {
	listCore
	head core.Ptr
}

// NewList builds a list running under cfg.Scheme.
func NewList(cfg Config) (*List, error) {
	b, err := newBase("list", cfg, listPoison)
	if err != nil {
		return nil, err
	}
	return &List{listCore: listCore{b}}, nil
}

// Insert adds key→val; false if present.
func (l *List) Insert(tid int, key, val uint64) bool { return l.insert(tid, &l.head, key, val) }

// Remove deletes key; false if absent.
func (l *List) Remove(tid int, key uint64) bool { return l.remove(tid, &l.head, key) }

// Get returns the value bound to key.
func (l *List) Get(tid int, key uint64) (uint64, bool) { return l.get(tid, &l.head, key) }

// Fill bulk-loads pairs (single-threaded).
func (l *List) Fill(pairs []KV) {
	sorted := append([]KV(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	dedup := sorted[:0]
	for i, kv := range sorted {
		if i == 0 || kv.Key != sorted[i-1].Key {
			dedup = append(dedup, kv)
		}
	}
	l.fill(&l.head, dedup)
}

// Keys returns the ascending key set (quiescence only).
func (l *List) Keys() []uint64 { return l.keys(&l.head, nil) }

// Range calls fn in ascending key order for every pair with from <= key <=
// to. Unlike the Bonsai tree's snapshot Range, a mutable list offers only
// a weakly consistent scan: keys inserted or removed while the scan runs
// may or may not be observed, but every key untouched during the scan is
// reported exactly once, and the traversal is reclamation-safe under any
// scheme. Like find, it unlinks and retires the logically deleted nodes it
// meets. fn returning false stops the scan.
func (l *List) Range(tid int, from, to uint64, fn func(key, val uint64) bool) {
	l.w.Do(tid, func(g *guard.Guard[listNode]) {
		lo := from // resume cursor: never re-emit a key after a restart
		pp, cc, nn := slotPrev, slotCurr, slotNext
		prev := &l.head
		curr := g.LoadRoot(cc, prev).ClearMarks()
		for !curr.IsNil() {
			node := g.Deref(curr)
			next := g.Load(nn, &node.next)
			if pv := prev.Raw(); pv.Mark0() || pv.ClearMarks() != curr {
				// Window changed under us: restart from the head (weakly
				// consistent, like Michael's unlink-helping traversals);
				// the cursor guarantees each key is emitted at most once.
				pp, cc, nn = slotPrev, slotCurr, slotNext
				prev = &l.head
				curr = g.LoadRoot(cc, prev).ClearMarks()
				continue
			}
			if next.Mark0() {
				// curr is logically deleted: unlink it as find does. Stepping
				// over it instead would leave prev at a marked word, and with
				// no later find to clean up the validation above would
				// restart the scan forever.
				if !g.CompareAndSwap(prev, curr, next.ClearMarks()) {
					pp, cc, nn = slotPrev, slotCurr, slotNext
					prev = &l.head
					curr = g.LoadRoot(cc, prev).ClearMarks()
					continue
				}
				g.Retire(curr)
				curr = next.ClearMarks()
				cc, nn = nn, cc
				continue
			}
			k := node.key
			if k > to {
				return
			}
			if k >= lo {
				if !fn(k, node.val) {
					return
				}
				lo = k + 1
			}
			prev = &node.next
			pp, cc, nn = cc, nn, pp
			curr = next.ClearMarks()
		}
		_ = pp
	})
}
