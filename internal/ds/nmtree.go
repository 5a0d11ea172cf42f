package ds

import (
	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// NMTree is the lock-free external binary search tree of Natarajan and
// Mittal (PPoPP 2014), the third rideable of the IBR paper's evaluation
// (§5). Keys live in leaves; internal nodes route. Updates synchronize on
// *edges*: a delete first FLAGs the edge to its victim leaf (injection),
// then TAGs the edge to the sibling and swings the deepest clean ancestor
// edge over the whole doomed chain (cleanup). Mark bit 0 of a child pointer
// is the FLAG; mark bit 1 is the TAG.
//
// One deliberate improvement over the paper's artifact: when a cleanup CAS
// wins, this implementation retires the *entire* detached fragment (the
// tagged chain from successor down to parent plus every flagged leaf
// hanging off it), not just parent and leaf. Overlapping deletes otherwise
// leak the inner nodes of the chain; owning the fragment is safe because
// every edge inside it is tagged or flagged, so no other CAS can succeed
// there (the winner has exclusive custody).
type NMTree struct {
	base[nmNode]
	// Sentinel internals R (key infinity2) and S (key infinity1); fixed,
	// never retired. All application keys are < infinity1, so every seek
	// descends R -> S -> S.left subtree.
	rootR, rootS mem.Handle
}

// nmNode is a tree node; isLeaf is immutable after publication.
type nmNode struct {
	key    uint64
	val    uint64
	isLeaf uint32
	left   core.Ptr
	right  core.Ptr
}

func nmPoison(n *nmNode) { n.key = ^uint64(0); n.val = ^uint64(0) }

// Sentinel keys: infinity1 < infinity2, both above every application key.
const (
	nmInf1 = KeyLimit
	nmInf2 = KeyLimit + 1
)

// Protection slot roles for the tree (HP/HE). slotHold keeps the victim
// leaf protected across the re-seeks of a delete's cleanup phase.
const (
	nmSlotAnc  = 0
	nmSlotSuc  = 1
	nmSlotPar  = 2
	nmSlotLeaf = 3
	nmSlotCur  = 4
	nmSlotHold = 5
)

// NewNMTree builds a Natarajan–Mittal tree running under cfg.Scheme.
func NewNMTree(cfg Config) (*NMTree, error) {
	b, err := newBase("nmtree", cfg, nmPoison)
	if err != nil {
		return nil, err
	}
	t := &NMTree{base: b}

	// Initial shape (single-threaded): R(inf2){S, leaf(inf2)},
	// S(inf1){leaf(inf1), leaf(inf2)}. Bracketed like any operation so the
	// setup follows the same reservation discipline the protocol boundary
	// test checks.
	t.w.Do(0, func(g *guard.Guard[nmNode]) {
		node := func(key uint64, isLeaf uint32, l, r mem.Handle) mem.Handle {
			h := g.Alloc()
			n := g.Deref(h)
			n.key, n.val, n.isLeaf = key, 0, isLeaf
			g.Publish(&n.left, l)
			g.Publish(&n.right, r)
			return h
		}
		t.rootS = node(nmInf1, 0, node(nmInf1, 1, mem.Nil, mem.Nil), node(nmInf2, 1, mem.Nil, mem.Nil))
		t.rootR = node(nmInf2, 0, t.rootS, node(nmInf2, 1, mem.Nil, mem.Nil))
	})
	return t, nil
}

// nmSeek is the seek record: handles are mark-free but may carry a packed
// epoch (TagIBR-WCAS), so comparisons use SameAddr and CAS expectations use
// the handle exactly as read.
type nmSeek struct {
	ancestor, successor, parent, leaf mem.Handle
}

// childOf returns the child field of internal node n on key's side.
func childOf(n *nmNode, key uint64) *core.Ptr {
	if key < n.key {
		return &n.left
	}
	return &n.right
}

// seek walks from the sentinels to the leaf on key's search path,
// maintaining the Natarajan–Mittal invariant: (ancestor → successor) is the
// deepest clean (untagged) edge seen on the path, and parent is leaf's
// parent. Protection slots are transferred as roles shift, so every
// recorded node stays protected.
func (t *NMTree) seek(g *guard.Guard[nmNode], key uint64) nmSeek {
	r := nmSeek{ancestor: t.rootR, successor: t.rootS, parent: t.rootS}
	sn := g.Deref(t.rootS)
	// Edge S -> S.left: sentinel edges are never tagged or flagged.
	parentField := g.Load(nmSlotLeaf, &sn.left)
	r.leaf = parentField.ClearMarks()
	for {
		node := g.Deref(r.leaf)
		if node.isLeaf == 1 {
			return r
		}
		cf := g.Load(nmSlotCur, childOf(node, key))
		// Advance: leaf becomes parent; if the edge into it was untagged it
		// also becomes the successor (with its parent as ancestor).
		if !parentField.Mark1() {
			r.ancestor = r.parent
			g.TransferSlot(nmSlotPar, nmSlotAnc)
			r.successor = r.leaf
			g.TransferSlot(nmSlotLeaf, nmSlotSuc)
		}
		r.parent = r.leaf
		g.TransferSlot(nmSlotLeaf, nmSlotPar)
		r.leaf = cf.ClearMarks()
		g.TransferSlot(nmSlotCur, nmSlotLeaf)
		parentField = cf
	}
}

// cleanup attempts to physically remove the delete operation injected at
// sr's parent/leaf window (ours or another thread's — callers use it to
// help). It returns true iff this call's CAS performed the removal.
func (t *NMTree) cleanup(g *guard.Guard[nmNode], key uint64, sr nmSeek) bool {
	anc := g.Deref(sr.ancestor)
	par := g.Deref(sr.parent)
	succField := childOf(anc, key)
	childAddr := childOf(par, key)
	sibAddr := &par.left
	if childAddr == &par.left {
		sibAddr = &par.right
	}
	if !childAddr.Raw().Mark0() {
		// Our side is not the flagged one: we are helping a delete whose
		// victim is the other child.
		childAddr, sibAddr = sibAddr, childAddr
		if !childAddr.Raw().Mark0() {
			// No injection on either edge (stale help request): tagging or
			// swinging here could excise an innocent leaf. Bail out.
			return false
		}
	}
	// Freeze the sibling edge so the subtree we are about to relink cannot
	// change underneath the swing.
	sv := sibAddr.FetchOrMarks(mem.Mark1Bit).WithMark1()
	// Swing the deepest clean ancestor edge over the doomed chain: the
	// sibling is relinked in place of successor. The sibling edge's FLAG
	// (if its leaf is itself under deletion) is preserved; the TAG is not
	// copied — the new edge is a fresh, mutable one.
	if !g.CompareAndSwap(succField, sr.successor, sv.ClearMark1()) {
		return false
	}
	t.retireFragment(g, key, sr, childAddr)
	return true
}

// retireFragment retires the chain detached by a winning cleanup CAS:
// internal nodes from successor down to parent (inclusive) along key's
// path, each flagged leaf hanging off it, and the victim leaf. Every edge
// in the fragment is tagged or flagged, so no concurrent CAS can succeed
// inside it: the winner owns every node and each is retired exactly once.
//
// The paper's well-behavedness proviso (§4.1) requires every shared pointer
// to a block to be overwritten before the block is retired — otherwise a
// reader already inside the fragment could pick up a pointer to a block
// *after* its retire, which no lightweight scheme tolerates (validation
// re-reads the source pointer, so it catches an overwrite but never a
// retire of an unchanged target). We therefore redirect each fragment
// node's child edges before retiring the children. The redirect target
// must be a node that can NEVER be retired: these stale edges live forever
// inside dead fragments, so pointing them at any reclaimable node (the
// sibling, say) re-creates the violation the moment that node is deleted —
// a parked reader would follow the stale edge to a freed slot and no
// revalidation could tell. We use the sentinel S: a reader routed there
// simply resumes its descent through live edges (an implicit restart), and
// the tag bit on the redirect makes every clean-expecting CAS against a
// detached edge fail, so no update can be lost into a dead fragment.
func (t *NMTree) retireFragment(g *guard.Guard[nmNode], key uint64, sr nmSeek, victimAddr *core.Ptr) {
	cur := sr.successor // incoming pointer already gone: the swing removed it
	for !cur.SameAddr(sr.parent) {
		n := g.Deref(cur)
		onPath := childOf(n, key)
		offPath := &n.left
		if onPath == &n.left {
			offPath = &n.right
		}
		// The off-path edge of a tagged-chain node is a flagged leaf —
		// the victim of the delete that tagged our on-path edge.
		next := onPath.Raw().ClearMarks()
		off := offPath.Raw()
		// Route readers to the immortal sentinel, then retire; children
		// follow once their incoming edge is overwritten.
		g.Publish(&n.left, t.rootS.WithMark1())
		g.Publish(&n.right, t.rootS.WithMark1())
		g.Retire(cur)
		if !off.IsNil() {
			g.Retire(off)
		}
		cur = next
	}
	// cur == parent: same dance; its children are the victim leaf and the
	// sibling (which was just relinked — never retired).
	v := victimAddr.Raw()
	n := g.Deref(cur)
	g.Publish(&n.left, t.rootS.WithMark1())
	g.Publish(&n.right, t.rootS.WithMark1())
	if !cur.SameAddr(t.rootS) { // never retire sentinels (defensive)
		g.Retire(cur)
	}
	if !v.IsNil() {
		g.Retire(v)
	}
}

// Get returns the value bound to key.
func (t *NMTree) Get(tid int, key uint64) (val uint64, found bool) {
	checkKey(key)
	t.w.Do(tid, func(g *guard.Guard[nmNode]) {
		if n := g.Deref(t.seek(g, key).leaf); n.key == key {
			val, found = n.val, true
		}
	})
	return val, found
}

// Insert adds key→val; false if present.
func (t *NMTree) Insert(tid int, key, val uint64) (ok bool) {
	checkKey(key)
	t.w.Do(tid, func(g *guard.Guard[nmNode]) {
		newLeaf := mem.Nil
		fails := 0
		for {
			if fails >= restartThreshold {
				fails = 0
				g.Restart() // holds only private (unpublished) nodes
			}
			sr := t.seek(g, key)
			leafNode := g.Deref(sr.leaf)
			if leafNode.key == key {
				if !newLeaf.IsNil() {
					// Only the internal nodes of failed attempts, each
					// discarded unpublished, ever pointed at the leaf.
					g.Discard(newLeaf)
				}
				return
			}
			if newLeaf.IsNil() {
				newLeaf = g.Alloc()
				if newLeaf.IsNil() {
					return
				}
				ln := g.Deref(newLeaf)
				ln.key, ln.val, ln.isLeaf = key, val, 1
				g.Publish(&ln.left, mem.Nil)
				g.Publish(&ln.right, mem.Nil)
			}
			// Replace the leaf with internal{max(key, leaf.key)} routing to
			// {new leaf, old leaf} in key order.
			newInt := g.Alloc()
			if newInt.IsNil() {
				g.Discard(newLeaf) // allocator exhausted
				return
			}
			in := g.Deref(newInt)
			in.isLeaf = 0
			if key < leafNode.key {
				in.key = leafNode.key
				g.Publish(&in.left, newLeaf)
				g.Publish(&in.right, sr.leaf)
			} else {
				in.key = key
				g.Publish(&in.left, sr.leaf)
				g.Publish(&in.right, newLeaf)
			}
			childAddr := childOf(g.Deref(sr.parent), key)
			if g.CompareAndSwap(childAddr, sr.leaf, newInt) {
				ok = true
				return
			}
			// Failed: discard the internal (never published), help any delete
			// stuck on this edge, retry.
			g.Discard(newInt)
			fails++
			if cf := childAddr.Raw(); cf.SameAddr(sr.leaf) && cf.Marks() != 0 {
				t.cleanup(g, key, sr)
			}
		}
	})
	return ok
}

// Remove deletes key; false if absent. It follows the paper's two-phase
// protocol: INJECTION (flag the victim edge — the delete's linearization)
// then CLEANUP (swing the ancestor edge; retried, with helping, until the
// victim is observed gone).
func (t *NMTree) Remove(tid int, key uint64) (ok bool) {
	checkKey(key)
	t.w.Do(tid, func(g *guard.Guard[nmNode]) {
		injecting := true
		victim := mem.Nil
		fails := 0
		for {
			sr := t.seek(g, key)
			if injecting {
				if fails >= restartThreshold {
					fails = 0
					g.Restart() // no references held in injection mode
					continue
				}
				if g.Deref(sr.leaf).key != key {
					return
				}
				childAddr := childOf(g.Deref(sr.parent), key)
				if g.CompareAndSwap(childAddr, sr.leaf, sr.leaf.WithMark0()) {
					victim = sr.leaf
					// Keep the victim protected across cleanup's re-seeks.
					g.TransferSlot(nmSlotLeaf, nmSlotHold)
					injecting = false
					if t.cleanup(g, key, sr) {
						ok = true
						return
					}
				} else {
					fails++
					if cf := childAddr.Raw(); cf.SameAddr(sr.leaf) && cf.Marks() != 0 {
						t.cleanup(g, key, sr)
					}
				}
			} else if !sr.leaf.SameAddr(victim) || t.cleanup(g, key, sr) {
				// Our flag is planted; the delete has logically happened. Keep
				// cleaning until we win or someone else removed the victim.
				ok = true
				return
			}
		}
	})
	return ok
}

// Fill loads pairs into the empty tree through the normal insert path, in
// the order given: an ascending load would degenerate it into a path.
func (t *NMTree) Fill(pairs []KV) {
	t.refuseNonEmpty(len(t.Keys()) == 0)
	for _, kv := range pairs {
		t.Insert(0, kv.Key, kv.Val)
	}
}

// Keys returns the ascending application key set (quiescence only).
func (t *NMTree) Keys() (out []uint64) {
	t.w.Do(0, func(g *guard.Guard[nmNode]) {
		var walk func(h mem.Handle)
		walk = func(h mem.Handle) {
			h = h.ClearMarks()
			if h.IsNil() {
				return
			}
			n := g.Deref(h)
			if n.isLeaf == 1 {
				if n.key < KeyLimit {
					out = append(out, n.key)
				}
				return
			}
			walk(n.left.Raw())
			walk(n.right.Raw())
		}
		walk(g.Deref(t.rootS).left.Raw())
	})
	return out
}

func checkKey(key uint64) {
	if key >= KeyLimit {
		panic("ds: application keys must be below KeyLimit")
	}
}
