package ds

import (
	"sync"
	"testing"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

func newTestNMTree(t *testing.T, scheme string, threads int) *NMTree {
	t.Helper()
	tr, err := NewNMTree(testConfig(scheme, threads))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNMTreeInitialShape(t *testing.T) {
	tr := newTestNMTree(t, "ebr", 1)
	r := tr.w.Pool().Get(tr.rootR)
	s := tr.w.Pool().Get(tr.rootS)
	if r.key != nmInf2 || r.isLeaf != 0 {
		t.Fatalf("R = {key %d, leaf %d}", r.key, r.isLeaf)
	}
	if s.key != nmInf1 || s.isLeaf != 0 {
		t.Fatalf("S = {key %d, leaf %d}", s.key, s.isLeaf)
	}
	if !r.left.Raw().SameAddr(tr.rootS) {
		t.Fatal("R.left != S")
	}
	// Three sentinel leaves: S.left(inf1), S.right(inf2), R.right(inf2).
	for _, probe := range []struct {
		p    *core.Ptr
		want uint64
	}{{&s.left, nmInf1}, {&s.right, nmInf2}, {&r.right, nmInf2}} {
		leaf := tr.w.Pool().Get(probe.p.Raw())
		if leaf.isLeaf != 1 || leaf.key != probe.want {
			t.Fatalf("sentinel leaf = {key %d, leaf %d}, want key %d", leaf.key, leaf.isLeaf, probe.want)
		}
	}
	// Initial node count: R, S, 3 leaves = 2*(0+3)-1 = 5.
	if live := tr.PoolStats().Live(); live != 5 {
		t.Fatalf("initial live = %d, want 5", live)
	}
}

// TestNMTreeExternalProperty: every application key must live in a leaf,
// and internal nodes must route correctly (left < key <= right).
func TestNMTreeExternalProperty(t *testing.T) {
	tr := newTestNMTree(t, "tagibr", 1)
	for _, k := range []uint64{50, 20, 80, 10, 30, 70, 90, 25} {
		tr.Insert(0, k, k)
	}
	var check func(h mem.Handle, lo, hi uint64)
	check = func(h mem.Handle, lo, hi uint64) {
		h = h.ClearMarks()
		n := tr.w.Pool().Get(h)
		if n.isLeaf == 1 {
			if n.key < lo || n.key >= hi {
				t.Fatalf("leaf %d outside [%d,%d)", n.key, lo, hi)
			}
			return
		}
		check(n.left.Raw(), lo, n.key)
		check(n.right.Raw(), n.key, hi)
	}
	// The subtree's rightmost leaf is the inf1 sentinel, so the exclusive
	// bound is nmInf1+1.
	check(tr.w.Pool().Get(tr.rootS).left.Raw(), 0, nmInf1+1)
}

func TestNMTreeEmptyToFullCycle(t *testing.T) {
	tr := newTestNMTree(t, "2geibr", 1)
	// Fill, empty, refill: sentinels must survive and accounting must be
	// exact at each quiescent point.
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 64; k++ {
			if !tr.Insert(0, k, k) {
				t.Fatalf("round %d: Insert(%d) failed", round, k)
			}
		}
		for k := uint64(0); k < 64; k++ {
			if !tr.Remove(0, k) {
				t.Fatalf("round %d: Remove(%d) failed", round, k)
			}
		}
		if got := tr.Keys(); len(got) != 0 {
			t.Fatalf("round %d: %v left", round, got)
		}
		core.DrainAll(tr.Scheme(), 1)
		if live := tr.PoolStats().Live(); live != 5 {
			t.Fatalf("round %d: live = %d, want 5 (sentinels only)", round, live)
		}
	}
}

// TestNMTreeCleanupGuard: a stale help request on a window with no
// injected delete must not excise anything (the spurious-cleanup guard).
func TestNMTreeCleanupGuard(t *testing.T) {
	tr := newTestNMTree(t, "ebr", 1)
	tr.Insert(0, 10, 1)
	tr.Insert(0, 20, 2)
	tr.w.Do(0, func(g *guard.Guard[nmNode]) {
		if tr.cleanup(g, 10, tr.seek(g, 10)) {
			t.Fatal("cleanup succeeded with no flag planted")
		}
	})
	if _, ok := tr.Get(0, 10); !ok {
		t.Fatal("spurious cleanup removed a live key")
	}
	if _, ok := tr.Get(0, 20); !ok {
		t.Fatal("spurious cleanup removed a live key")
	}
}

// TestNMTreeHelpCompletesInjectedDelete: after a delete's injection CAS
// (flag planted), any other thread's cleanup can complete the removal.
func TestNMTreeHelpCompletesInjectedDelete(t *testing.T) {
	tr := newTestNMTree(t, "ebr", 2)
	tr.Insert(0, 10, 1)
	tr.Insert(0, 20, 2)

	// Inject a delete of 10 by hand: flag the edge parent→leaf(10).
	tr.w.Do(0, func(g *guard.Guard[nmNode]) {
		sr := tr.seek(g, 10)
		childAddr := childOf(g.Deref(sr.parent), 10)
		if !g.CompareAndSwap(childAddr, sr.leaf, sr.leaf.WithMark0()) {
			t.Fatal("injection CAS failed")
		}
		// A second thread helps: its cleanup must finish the removal.
		tr.w.Do(1, func(g *guard.Guard[nmNode]) {
			if !tr.cleanup(g, 10, tr.seek(g, 10)) {
				t.Fatal("helper cleanup did not complete the injected delete")
			}
		})
	})
	if _, ok := tr.Get(0, 10); ok {
		t.Fatal("key 10 still present after helped delete")
	}
	if _, ok := tr.Get(0, 20); !ok {
		t.Fatal("helping removed the wrong key")
	}
	core.DrainAll(tr.Scheme(), 2)
	if live, want := tr.PoolStats().Live(), expectedNodes("nmtree", 1); live != want {
		t.Fatalf("live = %d, want %d", live, want)
	}
}

// TestNMTreeFragmentRedirectsPointToSentinel: after a removal, the
// detached nodes' edges must point (tagged) at S — the invariant that
// keeps parked readers safe (DESIGN.md finding iii).
func TestNMTreeFragmentRedirects(t *testing.T) {
	tr := newTestNMTree(t, "ebr", 2)
	tr.Insert(0, 10, 1)
	tr.Insert(0, 20, 2)

	// Capture the parent internal node that Remove(10) will detach.
	var parent mem.Handle
	tr.w.Do(1, func(g *guard.Guard[nmNode]) { parent = tr.seek(g, 10).parent })

	// A live operation on tid 1 pins the epoch so the detached fragment
	// stays unreclaimed and inspectable after Remove returns.
	tr.w.Do(1, func(g *guard.Guard[nmNode]) {
		if !tr.Remove(0, 10) {
			t.Fatal("Remove failed")
		}
		pn := g.Deref(parent)
		l, r := pn.left.Raw(), pn.right.Raw()
		if !l.SameAddr(tr.rootS) || !r.SameAddr(tr.rootS) {
			t.Fatalf("fragment edges = %v/%v, want sentinel redirects", l, r)
		}
		if !l.Mark1() || !r.Mark1() {
			t.Fatal("redirect edges must be tagged")
		}
	})
}

// TestNMTreeConcurrentSameKeyDelete: N threads remove one key; exactly one
// wins and the loser sees a clean false.
func TestNMTreeConcurrentSameKeyDelete(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "tagibr-wcas"} {
		t.Run(scheme, func(t *testing.T) {
			const threads = 4
			for round := 0; round < 50; round++ {
				tr := newTestNMTree(t, scheme, threads)
				tr.Insert(0, 42, 1)
				var wg sync.WaitGroup
				wins := make([]bool, threads)
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						wins[tid] = tr.Remove(tid, 42)
					}(tid)
				}
				wg.Wait()
				n := 0
				for _, w := range wins {
					if w {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("round %d: %d winners for one key", round, n)
				}
			}
		})
	}
}

// TestNMTreeDegenerateInsertionOrders: ascending, descending and organ-pipe
// orders must all produce a correct (if unbalanced) external tree.
func TestNMTreeDegenerateInsertionOrders(t *testing.T) {
	orders := map[string][]uint64{
		"ascending":  {1, 2, 3, 4, 5, 6, 7, 8},
		"descending": {8, 7, 6, 5, 4, 3, 2, 1},
		"organpipe":  {1, 8, 2, 7, 3, 6, 4, 5},
	}
	for name, keys := range orders {
		t.Run(name, func(t *testing.T) {
			tr := newTestNMTree(t, "tagibr", 1)
			for _, k := range keys {
				tr.Insert(0, k, k*10)
			}
			got := tr.Keys()
			if len(got) != 8 {
				t.Fatalf("%d keys, want 8", len(got))
			}
			for i := range got {
				if got[i] != uint64(i+1) {
					t.Fatalf("Keys() = %v", got)
				}
				if v, _ := tr.Get(0, got[i]); v != got[i]*10 {
					t.Fatalf("value of %d corrupted", got[i])
				}
			}
		})
	}
}
