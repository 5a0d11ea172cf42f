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
// −1 when a level is snipped, and whoever moves it to zero owns the (now
// fully detached) node's retirement. This closes the classic skip-list
// insert/delete race in which a slow inserter re-links a node that a
// simple "level-0 snipper retires" rule has already handed to the
// allocator.
type SkipList struct {
	w    *guard.Guarded[slNode]
	head slNode // sentinel tower; its Ptr cells are the roots
	rnd  []slRand
}

// MaxLevel is the tower height cap: level-16 towers comfortably index the
// benchmark's 65536-key range.
const MaxLevel = 16

type slNode struct {
	key, val uint64
	topLevel uint32
	links    atomic.Int32 // levels currently linked (+pending link attempts)
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
	popt := mem.Options[slNode]{Threads: cfg.Core.Threads, MaxSlots: cfg.PoolSlots}
	if cfg.Poison {
		popt.Poison = slPoison
	}
	pool := mem.New[slNode](popt)
	s, err := core.New(cfg.Scheme, pool, cfg.Core)
	if err != nil {
		return nil, err
	}
	sl := &SkipList{w: guard.New(s, pool), rnd: make([]slRand, cfg.Core.Threads)}
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

// linksRetired is the sentinel installed (by CAS) when a node's link count
// first reaches zero: it makes the zero-crossing unique, so a lagging
// insert's Inc/Dec rollback can never trigger a second retirement, and it
// lets such an insert detect — before linking — that the node is already
// dead (Add(1) on the sentinel stays hugely negative).
const linksRetired = -(1 << 20)

// unlink records that one incoming link to h was removed; whoever wins the
// unique zero-crossing CAS retires the node.
func unlink(g *guard.Guard[slNode], h mem.Handle) {
	n := g.Deref(h)
	if n.links.Add(-1) == 0 && n.links.CompareAndSwap(0, linksRetired) {
		g.Retire(h)
	}
}

// find locates key's window at every level, snipping marked nodes as it
// descends. preds[L] is the Ptr cell whose level-L target is succs[L];
// found reports whether succs[0] holds key.
func (sl *SkipList) find(g *guard.Guard[slNode], key uint64, preds *[MaxLevel]*core.Ptr, succs *[MaxLevel]mem.Handle, fails *int) bool {
	return sl.findRestart(g, key, preds, succs, fails, true)
}

// findRestart is find with the §4.3.1 reservation renewal made optional:
// callers that hold references across the call (Insert's upper-level
// linking keeps its just-published node) MUST pass allowRestart=false —
// Restart would renew the reservation and let a concurrent removal
// retire-and-recycle the held node under them, whose stale writes would
// then corrupt the slot's next occupant.
func (sl *SkipList) findRestart(g *guard.Guard[slNode], key uint64, preds *[MaxLevel]*core.Ptr, succs *[MaxLevel]mem.Handle, fails *int, allowRestart bool) bool {
retry:
	if allowRestart && *fails >= restartThreshold {
		*fails = 0
		g.Restart()
	}
	pred := &sl.head
	for level := MaxLevel - 1; level >= 0; level-- {
		predPtr := &pred.next[level]
		curr := g.Load(0, predPtr).ClearMarks()
		for {
			if curr.IsNil() {
				break
			}
			currNode := g.Deref(curr)
			succ := g.Load(1, &currNode.next[level])
			if succ.Mark0() {
				// curr is logically deleted at this level: snip it.
				if !g.CompareAndSwap(predPtr, curr, succ.ClearMarks()) {
					*fails++
					goto retry
				}
				unlink(g, curr)
				curr = succ.ClearMarks()
				continue
			}
			if currNode.key < key {
				pred = currNode
				predPtr = &currNode.next[level]
				curr = succ.ClearMarks()
				continue
			}
			break
		}
		preds[level] = predPtr
		succs[level] = curr
	}
	return !succs[0].IsNil() && g.Deref(succs[0]).key == key
}

// Name returns "skiplist".
func (sl *SkipList) Name() string { return "skiplist" }

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
				n.links.Store(0)
				for l := 0; l < MaxLevel; l++ {
					g.Publish(&n.next[l], mem.Nil)
				}
			}
			n := g.Deref(node)
			// Point the private tower at the window, then publish level 0.
			for l := 0; l < top; l++ {
				g.Publish(&n.next[l], succs[l])
			}
			n.links.Store(1) // the level-0 link we are about to make
			if !g.CompareAndSwap(preds[0], succs[0], node) {
				fails++
				continue
			}
			// Cover our own node with our reservation before touching it
			// again: interval schemes raise `upper` only on reads, and the
			// published node can already be under concurrent removal.
			// Re-reading the cell we just CASed raises upper past the node's
			// birth (the CAS raised the cell's born tag), so no scan can free
			// the node while the linking phase still holds it.
			g.Load(0, preds[0])
			sl.linkUpper(g, key, node, top, &preds, &succs, &fails)
			ok = true
			return
		}
	})
	return ok
}

// linkUpper links node's levels 1..top-1 after a successful level-0
// publish. Every attempt pre-increments the link count (so a concurrent
// full removal cannot retire the node under a link that is about to land)
// and rolls it back on failure; a rollback that hits zero means we were
// the last link holder and we retire.
func (sl *SkipList) linkUpper(g *guard.Guard[slNode], key uint64, node mem.Handle, top int, preds *[MaxLevel]*core.Ptr, succs *[MaxLevel]mem.Handle, fails *int) {
	n := g.Deref(node)
	for l := 1; l < top; l++ {
		for {
			cur := g.Load(0, &n.next[l])
			if cur.Mark0() {
				return // a deleter owns the remaining levels
			}
			// Keep our forward pointer current with the window.
			if !cur.SameAddr(succs[l]) {
				if !g.CompareAndSwap(&n.next[l], cur, succs[l]) {
					continue // marked or raced: re-examine
				}
			}
			if n.links.Add(1) <= 0 {
				// The node was fully removed and retired while we prepared:
				// undo the probe and abandon linking (linking a retired
				// node would resurrect it into the structure).
				n.links.Add(-1)
				return
			}
			if g.CompareAndSwap(preds[l], succs[l], node) {
				break // linked at level l
			}
			if n.links.Add(-1) == 0 {
				if n.links.CompareAndSwap(0, linksRetired) {
					g.Retire(node) // removal completed under us
				}
				return
			}
			*fails++
			// Window moved: recompute it (without Restart — we hold node).
			// If our node is gone from level 0 (removed, possibly replaced
			// by a same-key successor), stop.
			if !sl.findRestart(g, key, preds, succs, fails, false) || !succs[0].SameAddr(node) {
				return
			}
			if succs[l].SameAddr(node) {
				break // already linked at this level (defensive)
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
// to. It descends the index levels (as Get does) to reach from's level-0
// predecessor, then walks the level-0 chain from there — so a small
// interval costs O(log n + results), not O(total keys), and the
// reservation the scan holds is no longer than the scan itself. The whole
// thing runs under one StartOp/EndOp bracket. Unlike find, the descent is
// read-only: it steps over marked nodes instead of snipping them (a scan
// should not CAS), which is safe for the same reason the level-0 walk is —
// Harris-style removal leaves a removed node's next pointers intact, so a
// frozen chain converges back into the live list and the reservation keeps
// every node on it from being recycled under us. Like the list's Range it
// is weakly consistent: logically deleted nodes are skipped, and the
// resume cursor guarantees no key is ever emitted twice.
func (sl *SkipList) Range(tid int, from, to uint64, fn func(key, val uint64) bool) {
	sl.w.Do(tid, func(g *guard.Guard[slNode]) {
		lo := from
		pred := &sl.head
		for level := MaxLevel - 1; level >= 1; level-- {
			curr := g.Load(0, &pred.next[level]).ClearMarks()
			for !curr.IsNil() {
				n := g.Deref(curr)
				if n.key >= from {
					break
				}
				// Advancing through (possibly marked) nodes without snipping:
				// keys are immutable while reserved, so the order holds even
				// on a frozen chain.
				pred = n
				curr = g.Load(1, &n.next[level]).ClearMarks()
			}
		}
		curr := g.Load(0, &pred.next[0]).ClearMarks()
		for !curr.IsNil() {
			n := g.Deref(curr)
			next := g.Load(1, &n.next[0])
			if !next.Mark0() { // skip logically deleted nodes
				k := n.key
				if k > to {
					return
				}
				if k >= lo {
					if !fn(k, n.val) {
						return
					}
					lo = k + 1
				}
			}
			curr = next.ClearMarks()
		}
	})
}

// Fill bulk-loads pairs (single-threaded) through the insert path.
func (sl *SkipList) Fill(pairs []KV) {
	for _, kv := range pairs {
		sl.Insert(0, kv.Key, kv.Val)
	}
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
			curr := g.Load(0, predPtr).ClearMarks()
			for !curr.IsNil() {
				currNode := g.Deref(curr)
				succ := g.Load(1, &currNode.next[level])
				if succ.Mark0() {
					if !g.CompareAndSwap(predPtr, curr, succ.ClearMarks()) {
						goto restart
					}
					unlink(g, curr)
					curr = succ.ClearMarks()
					continue
				}
				predPtr = &currNode.next[level]
				curr = succ.ClearMarks()
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

// Scheme exposes the reclamation scheme.
func (sl *SkipList) Scheme() core.Scheme { return sl.w.Scheme() }

// PoolStats exposes allocator counters.
func (sl *SkipList) PoolStats() mem.Stats { return sl.w.Pool().Stats() }
