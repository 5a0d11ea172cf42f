package ds

import (
	"sync"
	"testing"
	"time"

	"ibr/internal/core"
	"ibr/internal/mem"
)

func newTestList(t *testing.T, scheme string, threads int) *List {
	t.Helper()
	l, err := NewList(testConfig(scheme, threads))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestListEmpty(t *testing.T) {
	l := newTestList(t, "ebr", 1)
	if _, ok := l.Get(0, 1); ok {
		t.Fatal("Get on empty list found a key")
	}
	if l.Remove(0, 1) {
		t.Fatal("Remove on empty list succeeded")
	}
	if got := l.Keys(); len(got) != 0 {
		t.Fatalf("empty list Keys() = %v", got)
	}
}

func TestListBoundaryKeys(t *testing.T) {
	l := newTestList(t, "tagibr", 1)
	for _, k := range []uint64{0, 1, KeyLimit - 1} {
		if !l.Insert(0, k, k+100) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if got := l.Keys(); len(got) != 3 || got[0] != 0 || got[2] != KeyLimit-1 {
		t.Fatalf("Keys() = %v", got)
	}
	// Head insertion: a new minimum must link before the current head.
	l2 := newTestList(t, "tagibr", 1)
	l2.Insert(0, 10, 0)
	l2.Insert(0, 5, 0)
	l2.Insert(0, 1, 0)
	got := l2.Keys()
	for i, want := range []uint64{1, 5, 10} {
		if got[i] != want {
			t.Fatalf("Keys() = %v", got)
		}
	}
}

// TestListLogicalDeletionVisible: a marked (logically deleted) node must be
// invisible to Get even before physical unlinking. We stage it by marking
// the node's next pointer directly, as a concurrent remover would.
func TestListLogicalDeletionVisible(t *testing.T) {
	l := newTestList(t, "ebr", 1)
	l.Insert(0, 1, 10)
	l.Insert(0, 2, 20)
	l.Insert(0, 3, 30)
	// Mark node 2 by hand: logical deletion without physical unlink.
	h2 := l.head.Raw().ClearMarks()
	n1 := l.w.Pool().Get(h2)
	h2 = n1.next.Raw().ClearMarks()
	n2 := l.w.Pool().Get(h2)
	if n2.key != 2 {
		t.Fatalf("walked to key %d, want 2", n2.key)
	}
	n2.next.FetchOrMarks(mem.Mark0Bit)
	if _, ok := l.Get(0, 2); ok {
		t.Fatal("Get found a logically deleted node")
	}
	if l.Remove(0, 2) {
		t.Fatal("Remove succeeded on an already logically deleted node")
	}
	// The traversal should also have physically unlinked (helped) node 2.
	if got := l.Keys(); len(got) != 2 {
		t.Fatalf("Keys() = %v, want [1 3]", got)
	}
}

// TestListHelperRetiresExactlyOnce: when the remover's unlink CAS fails,
// the helping traversal must retire the node — exactly one retirement
// overall (a double retire panics in the pool).
func TestListHelperRetiresExactlyOnce(t *testing.T) {
	l := newTestList(t, "ebr", 2)
	l.Insert(0, 1, 0)
	l.Insert(0, 2, 0)
	l.Insert(0, 3, 0)
	// Mark key 2 by hand (logical delete), then let a traversal help.
	h1 := l.head.Raw().ClearMarks()
	h2 := l.w.Pool().Get(h1).next.Raw().ClearMarks()
	l.w.Pool().Get(h2).next.FetchOrMarks(mem.Mark0Bit)
	if _, ok := l.Get(1, 3); !ok {
		t.Fatal("Get(3) failed")
	}
	if l.w.Pool().State(h2) == mem.StateLive {
		t.Fatal("helped node was not retired by the traversal")
	}
	core.DrainAll(l.Scheme(), 2)
	if l.w.Pool().State(h2) != mem.StateFree {
		t.Fatal("helped node not reclaimed at quiescence")
	}
}

// casBurst wraps a structure's scheme (installed through newScheme) and,
// while armed, runs burst on tid 0's goroutine right before tid 0's second
// CompareAndSwap: in a list Remove, after the logical delete and before the
// unlink.
type casBurst struct {
	core.Scheme
	armed bool
	cas   int
	burst func()
}

func (c *casBurst) CompareAndSwap(tid int, p *core.Ptr, old, new mem.Handle) bool {
	if c.armed && tid == 0 {
		if c.cas++; c.cas == 2 {
			c.burst()
		}
	}
	return c.Scheme.CompareAndSwap(tid, p, old, new)
}

// TestRemoveUnlinksWhenItsCASLoses: tid 0 marks key 20; before its unlink
// CAS, tid 1 removes key 10, which changes the word that CAS expects. The
// Remove must still leave its node off the list before returning, or the
// node stays linked and unretired until some later traversal of the chain,
// and a quiescent drain cannot free it.
func TestRemoveUnlinksWhenItsCASLoses(t *testing.T) {
	for _, structure := range []string{"list", "hashmap"} {
		t.Run(structure, func(t *testing.T) {
			var c *casBurst
			cfg := testConfig("ebr", 2)
			cfg.Buckets = 1 // the hash map's keys share one chain, as the list's do
			m, err := newWrappedMap(structure, cfg, func(s core.Scheme) core.Scheme {
				c = &casBurst{Scheme: s}
				return c
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Fill([]KV{{10, 10}, {20, 20}, {30, 30}})
			c.burst = func() {
				if !m.Remove(1, 10) {
					t.Error("Remove(10) = false, want true")
				}
			}
			c.armed = true
			if !m.Remove(0, 20) {
				t.Fatal("Remove(20) = false, want true")
			}
			c.armed = false
			if c.cas < 2 {
				t.Fatalf("Remove(20) made %d CAS calls, so the burst never ran", c.cas)
			}
			core.DrainAll(c, 2)
			keys := m.Keys()
			if live := m.(Instrumented).PoolStats().Live(); live != uint64(len(keys)) {
				t.Fatalf("%d live slots after DrainAll, want one per key of %v", live, keys)
			}
		})
	}
}

// TestListRangeUnlinksMarkedNode: a remover stalled between its logical
// delete and its unlink leaves a marked node for a traversal to clean up.
// With no other traffic, Range must be that traversal: it unlinks and
// retires the node and finishes, rather than restarting at the marked word
// forever.
func TestListRangeUnlinksMarkedNode(t *testing.T) {
	l := newTestList(t, "ebr", 1)
	for k := uint64(1); k <= 3; k++ {
		l.Insert(0, k, k)
	}
	h1 := l.head.Raw().ClearMarks()
	h2 := l.w.Pool().Get(h1).next.Raw().ClearMarks()
	l.w.Pool().Get(h2).next.FetchOrMarks(mem.Mark0Bit)
	done := make(chan []uint64, 1)
	go func() {
		var got []uint64
		l.Range(0, 0, 10, func(k, _ uint64) bool {
			got = append(got, k)
			return true
		})
		done <- got
	}()
	select {
	case got := <-done:
		if len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("Range = %v, want [1 3]", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Range did not finish past a marked node")
	}
	if l.w.Pool().State(h2) == mem.StateLive {
		t.Fatal("Range stepped over the marked node without retiring it")
	}
}

// TestListInsertReusesPrivateNode: a failed-then-successful insert must not
// leak its pre-allocated node, and an insert that loses to an existing key
// must free it.
func TestListInsertNoPrivateLeak(t *testing.T) {
	l := newTestList(t, "tagibr", 1)
	l.Insert(0, 5, 1)
	before := l.PoolStats()
	if l.Insert(0, 5, 2) {
		t.Fatal("duplicate insert succeeded")
	}
	after := l.PoolStats()
	if after.Live() != before.Live() {
		t.Fatalf("duplicate insert leaked %d nodes", after.Live()-before.Live())
	}
}

// TestListConcurrentInsertContention: all threads insert the same key;
// exactly one wins, and the losers' private nodes are freed.
func TestListConcurrentInsertContention(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "tagibr", "tagibr-wcas", "2geibr"} {
		t.Run(scheme, func(t *testing.T) {
			const threads = 4
			l := newTestList(t, scheme, threads)
			var wg sync.WaitGroup
			wins := make([]int, threads)
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for k := uint64(0); k < 500; k++ {
						if l.Insert(tid, k, uint64(tid)) {
							wins[tid]++
						}
					}
				}(tid)
			}
			wg.Wait()
			total := 0
			for _, w := range wins {
				total += w
			}
			if total != 500 {
				t.Fatalf("%d total successful inserts of 500 distinct keys", total)
			}
			core.DrainAll(l.Scheme(), threads)
			if live := l.PoolStats().Live(); live != 500 {
				t.Fatalf("%d live nodes, want 500", live)
			}
		})
	}
}

// TestListConcurrentRemoveContention: all threads remove the same keys;
// each key is removed exactly once.
func TestListConcurrentRemoveContention(t *testing.T) {
	const threads = 4
	l := newTestList(t, "2geibr", threads)
	var pairs []KV
	for k := uint64(0); k < 500; k++ {
		pairs = append(pairs, KV{k, k})
	}
	l.Fill(pairs)
	var wg sync.WaitGroup
	wins := make([]int, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for k := uint64(0); k < 500; k++ {
				if l.Remove(tid, k) {
					wins[tid]++
				}
			}
		}(tid)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 500 {
		t.Fatalf("%d total successful removes of 500 keys", total)
	}
	if got := l.Keys(); len(got) != 0 {
		t.Fatalf("list not empty: %v", got)
	}
	core.DrainAll(l.Scheme(), threads)
	if live := l.PoolStats().Live(); live != 0 {
		t.Fatalf("%d nodes leaked", live)
	}
}

// TestListValueFidelity: values must round-trip exactly, including extreme
// bit patterns that would collide with marks or poison if mishandled.
func TestListValueFidelity(t *testing.T) {
	l := newTestList(t, "tagibr-wcas", 1)
	vals := []uint64{0, 1, ^uint64(0), 0xDEADBEEF, 1 << 63}
	for i, v := range vals {
		l.Insert(0, uint64(i), v)
	}
	for i, v := range vals {
		if got, ok := l.Get(0, uint64(i)); !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v), want %d", i, got, ok, v)
		}
	}
}

// TestHashMapCrossBucketIsolation: operations on one bucket must never
// disturb keys hashing elsewhere.
func TestHashMapCrossBucketIsolation(t *testing.T) {
	m, err := NewHashMap(testConfig("tagibr", 1))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1000; k++ {
		m.Insert(0, k, k*7)
	}
	for k := uint64(0); k < 1000; k += 2 {
		m.Remove(0, k)
	}
	for k := uint64(1); k < 1000; k += 2 {
		if v, ok := m.Get(0, k); !ok || v != k*7 {
			t.Fatalf("odd key %d disturbed: (%d,%v)", k, v, ok)
		}
	}
	if got := len(m.Keys()); got != 500 {
		t.Fatalf("%d keys, want 500", got)
	}
}
