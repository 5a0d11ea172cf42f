package ds

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// SkipList is a lock-free skip list map (Fraser's design as presented by
// Herlihy & Shavit ch. 14.4), an extension rideable beyond the paper's
// four. It is the poster child for IBR's usability claim: an operation
// holds references to up to 2×MaxLevel nodes at once (the pred/succ
// arrays), so fixed-slot pointer-based schemes (HP, HE) are excluded for
// exactly the reason the paper excludes them from the Bonsai tree — a
// statically unknown (here: large) number of simultaneous reservations —
// while the interval schemes protect the whole working set with one
// [lower, upper] pair and zero per-node bookkeeping.
//
// Deletion marks a node's next pointers (mark bit 0, upper levels first,
// level 0 as the linearization point); traversals snip marked levels out.
// Retirement must wait until the *last* incoming link is gone, and a
// lagging insert can legally link an upper level after the node is already
// marked — so each node carries a link count: +1 when a level is linked,
// −1 when a level is snipped, plus one reference the inserter holds from
// before its level-0 publish until its upper levels are linked. Whoever
// moves the count to zero owns the (now fully detached) node's
// retirement. Only the inserter adds links, and only while it holds the
// node, so the count reaches zero exactly once, never while the inserter
// still touches the node — which closes the classic skip-list
// insert/delete race in which a slow inserter re-links a node that a
// simple "level-0 snipper retires" rule has already handed to the
// allocator.
type SkipList struct {
	base[slNode]
	head slNode // sentinel tower; its Ptr cells are the roots
	rnd  []slRand
}

// MaxLevel is the tower height cap: level-16 towers comfortably index the
// benchmark's 65536-key range.
const MaxLevel = 16

type slNode struct {
	key, val uint64
	topLevel uint32
	links    atomic.Int32 // levels linked + pending link attempts + the inserter's hold
	next     [MaxLevel]core.Ptr
}

func slPoison(n *slNode) { n.key = ^uint64(0); n.val = ^uint64(0) }

// slRand is a padded per-thread SplitMix64 for level drawing.
type slRand struct {
	_ [64]byte
	s uint64
	_ [56]byte
}

func (r *slRand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewSkipList builds a skip list running under cfg.Scheme.
func NewSkipList(cfg Config) (*SkipList, error) {
	b, err := newBase("skiplist", cfg, slPoison)
	if err != nil {
		return nil, err
	}
	sl := &SkipList{base: b, rnd: make([]slRand, cfg.Core.Threads)}
	for i := range sl.rnd {
		sl.rnd[i].s = uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	}
	return sl, nil
}

// randomLevel draws a geometric(1/2) tower height in [1, MaxLevel].
func (sl *SkipList) randomLevel(tid int) int {
	v := sl.rnd[tid].next() | (1 << (MaxLevel - 1)) // cap at MaxLevel
	return bits.TrailingZeros64(v) + 1
}

// unlink drops one reference to h; whoever drops the last retires the node.
func unlink(g *guard.Guard[slNode], h mem.Handle) {
	if g.Deref(h).links.Add(-1) == 0 {
		g.Retire(h)
	}
}

// step is how Range and Sweep cross a level; find runs the same loop
// inline. curr is the word just read out of predPtr. step snips out of
// predPtr the run of nodes marked at level, then returns the first
// unmarked node (Nil at the level's end), its body and its word at level.
// ok is false if predPtr's own word is marked or a snip's CAS fails; the
// caller must then follow nothing it read at this level. Interval schemes
// need that rule where EBR does not (DESIGN.md §1b (iv)): a marked word is
// frozen, and its target may have been born after this thread's upper
// endpoint and freed already, while an unmarked word's target — or a
// snipped node's successor, once the snip's CAS has won — is still linked
// when read, so the read covers it.
func step(g *guard.Guard[slNode], level int, predPtr *core.Ptr, curr mem.Handle) (h mem.Handle, n *slNode, succ mem.Handle, ok bool) {
	if curr.Mark0() {
		return mem.Nil, nil, mem.Nil, false
	}
	for !curr.IsNil() {
		n = g.Deref(curr)
		succ = g.Load(1, &n.next[level])
		if !succ.Mark0() {
			return curr, n, succ, true
		}
		next := succ.ClearMarks()
		if !g.CompareAndSwap(predPtr, curr, next) {
			return mem.Nil, nil, mem.Nil, false
		}
		unlink(g, curr)
		curr = next
	}
	return mem.Nil, nil, mem.Nil, true
}

// find locates key's window at every level, snipping marked nodes as it
// descends. preds[L] is the Ptr cell whose level-L target is succs[L];
// found reports whether succs[0] holds key. It restarts from the head on
// any failed step, renewing the reservation (§4.3.1) after
// restartThreshold failures: a caller may hold across it only nodes that
// cannot be retired meanwhile (Insert's own node, under its hold).
func (sl *SkipList) find(g *guard.Guard[slNode], key uint64, preds *[MaxLevel]*core.Ptr, succs *[MaxLevel]mem.Handle, fails *int) bool {
retry:
	if *fails >= restartThreshold {
		*fails = 0
		g.Restart()
	}
	pred := &sl.head
	for level := MaxLevel - 1; level >= 0; level-- {
		// step's loop, kept inline on the hot path (a call per node cost
		// lib-scan-stall throughput): a marked word where we stand fails,
		// marked nodes are snipped, and the walk stops at the first key >= key.
		predPtr := &pred.next[level]
		curr := g.Load(0, predPtr)
		if curr.Mark0() {
			*fails++
			goto retry
		}
		for !curr.IsNil() {
			n := g.Deref(curr)
			succ := g.Load(1, &n.next[level])
			if succ.Mark0() {
				next := succ.ClearMarks()
				if !g.CompareAndSwap(predPtr, curr, next) {
					*fails++
					goto retry
				}
				unlink(g, curr)
				curr = next
				continue
			}
			if n.key >= key {
				break
			}
			pred, predPtr, curr = n, &n.next[level], succ
		}
		preds[level] = predPtr
		succs[level] = curr
	}
	return !succs[0].IsNil() && g.Deref(succs[0]).key == key
}

// Insert adds key→val; false if present.
func (sl *SkipList) Insert(tid int, key, val uint64) (ok bool) {
	checkKey(key)
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		var preds [MaxLevel]*core.Ptr
		var succs [MaxLevel]mem.Handle
		node := mem.Nil
		top := sl.randomLevel(tid)
		fails := 0
		for {
			if sl.find(g, key, &preds, &succs, &fails) {
				if !node.IsNil() {
					g.Discard(node) // no CAS linked it, so no other thread can hold it
				}
				return
			}
			if node.IsNil() {
				node = g.Alloc()
				if node.IsNil() {
					return
				}
				n := g.Deref(node)
				n.key, n.val, n.topLevel = key, val, uint32(top)
			}
			n := g.Deref(node)
			// Point the private tower at the window, then publish level 0.
			// Levels at and above top stay unwritten: a traversal reaches a
			// node at level L only through a level-L link, and removals and
			// linkUpper stop at topLevel.
			for l := 0; l < top; l++ {
				g.Publish(&n.next[l], succs[l])
			}
			// The level-0 link we are about to make, and our own hold: our
			// reservation need not cover a node born after its upper
			// endpoint, so once published the node stays alive only because
			// no removal can retire it before we let go.
			n.links.Store(2)
			if !g.CompareAndSwap(preds[0], succs[0], node) {
				fails++
				continue
			}
			sl.linkUpper(g, key, node, top, &preds, &succs, &fails)
			unlink(g, node) // let go of our hold
			ok = true
			return
		}
	})
	return ok
}

// linkUpper links node's levels 1..top-1 after a successful level-0
// publish, under the inserter's hold. Every attempt adds the level's link
// before its CAS (a removal may snip the level the moment it lands) and
// takes it back if the CAS fails.
func (sl *SkipList) linkUpper(g *guard.Guard[slNode], key uint64, node mem.Handle, top int, preds *[MaxLevel]*core.Ptr, succs *[MaxLevel]mem.Handle, fails *int) {
	n := g.Deref(node)
	for l := 1; l < top; l++ {
		for {
			cur := g.Load(0, &n.next[l])
			if cur.Mark0() {
				return // a deleter owns the remaining levels
			}
			// Keep our forward pointer current with the window.
			if !cur.SameAddr(succs[l]) && !g.CompareAndSwap(&n.next[l], cur, succs[l]) {
				continue // marked or raced: re-examine
			}
			n.links.Add(1)
			if g.CompareAndSwap(preds[l], succs[l], node) {
				break // linked at level l
			}
			n.links.Add(-1)
			*fails++
			// Window moved: recompute it. If our node is gone from level 0
			// (removed, possibly replaced by a same-key successor), stop.
			if !sl.find(g, key, preds, succs, fails) || !succs[0].SameAddr(node) {
				return
			}
		}
	}
}

// Remove deletes key; false if absent. Upper levels are marked first, the
// level-0 mark is the linearization point, and a final find snips the
// levels (decrementing the link count; the last snipper retires).
func (sl *SkipList) Remove(tid int, key uint64) (ok bool) {
	checkKey(key)
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		var preds [MaxLevel]*core.Ptr
		var succs [MaxLevel]mem.Handle
		fails := 0
		if !sl.find(g, key, &preds, &succs, &fails) {
			return
		}
		n := g.Deref(succs[0])
		// Mark levels top-1..1 (idempotent across racing removers).
		for l := int(n.topLevel) - 1; l >= 1; l-- {
			for {
				cur := g.Load(0, &n.next[l])
				if cur.Mark0() || g.CompareAndSwap(&n.next[l], cur, cur.WithMark0()) {
					break
				}
				fails++
			}
		}
		// Level-0 mark: exactly one remover wins the linearization.
		for {
			cur := g.Load(0, &n.next[0])
			if cur.Mark0() {
				return // another remover linearized first
			}
			if g.CompareAndSwap(&n.next[0], cur, cur.WithMark0()) {
				// Snip eagerly; the last unlink (here or elsewhere) retires.
				sl.find(g, key, &preds, &succs, &fails)
				ok = true
				return
			}
			fails++
		}
	})
	return ok
}

// Get returns the value bound to key.
func (sl *SkipList) Get(tid int, key uint64) (val uint64, found bool) {
	checkKey(key)
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		var preds [MaxLevel]*core.Ptr
		var succs [MaxLevel]mem.Handle
		fails := 0
		if sl.find(g, key, &preds, &succs, &fails) {
			val, found = g.Deref(succs[0]).val, true
		}
	})
	return val, found
}

// Range calls fn in ascending key order for every pair with from <= key <=
// to. It descends with find to the first key at or above the resume cursor
// and walks level 0 from there with find's step, snipping the removed
// nodes it meets — so a small interval costs O(log n + results), the whole
// scan is one StartOp/EndOp bracket, and a ghost router cannot stall it.
// A failed step descends again from the cursor. Like the list's Range it
// is weakly consistent: logically deleted nodes are skipped, and the
// cursor guarantees no key is ever emitted twice.
func (sl *SkipList) Range(tid int, from, to uint64, fn func(key, val uint64) bool) {
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		var preds [MaxLevel]*core.Ptr
		var succs [MaxLevel]mem.Handle
		lo, fails := from, 0
	descend:
		sl.find(g, lo, &preds, &succs, &fails)
		predPtr, curr := preds[0], succs[0]
		for {
			h, n, succ, ok := step(g, 0, predPtr, curr)
			if !ok {
				fails++
				goto descend
			}
			if h.IsNil() || n.key > to || !fn(n.key, n.val) {
				return
			}
			lo = n.key + 1
			predPtr, curr = &n.next[0], succ
		}
	})
}

// Fill loads pairs into the empty skip list bottom-up, in one bracket: it
// walks their sorted run once, gives each node its tower height, and links
// the node into each of its levels' tail cells, starting at the head's. Each
// tail cell is written once, with the next node at its level or, after the
// last, with Nil, so there is no find, no CAS and no retry. A node's link
// count starts at its height, one per level linked, as Insert's would be
// once its hold is let go.
func (sl *SkipList) Fill(pairs []KV) {
	for l := range sl.head.next {
		sl.refuseNonEmpty(sl.head.next[l].Raw().IsNil())
	}
	sorted := sortedUnique(pairs)
	sl.w.Do(0, func(g *guard.Guard[slNode]) {
		var tails [MaxLevel]*core.Ptr
		for l := range tails {
			tails[l] = &sl.head.next[l]
		}
		for _, kv := range sorted {
			h := g.Alloc()
			if h.IsNil() {
				panic("ds: pool exhausted during Fill")
			}
			top := sl.randomLevel(0)
			n := g.Deref(h)
			n.key, n.val, n.topLevel = kv.Key, kv.Val, uint32(top)
			n.links.Store(int32(top))
			for l := 0; l < top; l++ {
				g.Publish(tails[l], h)
				tails[l] = &n.next[l]
			}
		}
		for _, t := range tails {
			g.Publish(t, mem.Nil)
		}
	})
}

// Sweep walks every level and snips out all marked entries, releasing
// "ghost routers": nodes already removed at level 0 whose upper levels
// were linked late by a racing insert and not yet crossed by any traversal.
// Safe to run concurrently with operations; long-running applications can
// call it periodically, and tests call it before exact leak accounting.
func (sl *SkipList) Sweep(tid int) {
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		for level := MaxLevel - 1; level >= 0; level-- {
		restart:
			predPtr := &sl.head.next[level]
			curr := g.Load(0, predPtr)
			for {
				h, n, succ, ok := step(g, level, predPtr, curr)
				if !ok {
					goto restart
				}
				if h.IsNil() {
					break
				}
				predPtr, curr = &n.next[level], succ
			}
		}
	})
}

// Keys returns the ascending key set (quiescence only).
func (sl *SkipList) Keys() (out []uint64) {
	sl.w.Do(0, func(g *guard.Guard[slNode]) {
		for h := sl.head.next[0].Raw().ClearMarks(); !h.IsNil(); {
			n := g.Deref(h)
			nxt := n.next[0].Raw()
			if !nxt.Mark0() {
				out = append(out, n.key)
			}
			h = nxt.ClearMarks()
		}
	})
	return out
}

// Validate checks level coherence at quiescence: every level's chain is
// strictly sorted, and every unmarked upper-level occupant is present
// below (ghost routers — marked upper levels not yet snipped — are legal).
func (sl *SkipList) Validate() (err error) {
	sl.w.Do(0, func(g *guard.Guard[slNode]) {
		var below map[uint64]bool
		for level := 0; level < MaxLevel; level++ {
			seen := map[uint64]bool{}
			last := int64(-1)
			for h := sl.head.next[level].Raw().ClearMarks(); !h.IsNil(); {
				n := g.Deref(h)
				if int64(n.key) <= last {
					err = fmt.Errorf("skiplist: level %d not strictly sorted at key %d", level, n.key)
					return
				}
				last = int64(n.key)
				nxt := n.next[level].Raw()
				if !nxt.Mark0() {
					seen[n.key] = true
					if level > 0 && !below[n.key] {
						err = fmt.Errorf("skiplist: key %d at level %d missing from level %d", n.key, level, level-1)
						return
					}
				}
				h = nxt.ClearMarks()
			}
			below = seen
		}
	})
	return err
}
