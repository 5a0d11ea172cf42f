package ds

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ibr/internal/core"
)

// mapStructures are the key-value rideables of the paper's evaluation.
var mapStructures = []string{"list", "hashmap", "nmtree", "bonsai", "skiplist"}

func testConfig(scheme string, threads int) Config {
	return Config{
		Scheme:    scheme,
		Core:      core.Options{Threads: threads, EpochFreq: 16, EmptyFreq: 8},
		PoolSlots: 1 << 19,
		Buckets:   64,
		Poison:    true,
	}
}

func newTestMap(t *testing.T, structure, scheme string, threads int) Map {
	t.Helper()
	m, err := NewMap(structure, testConfig(scheme, threads))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// expectedNodes returns the node count a structure should hold at
// quiescence with k keys present (for leak accounting).
func expectedNodes(structure string, k int) uint64 {
	switch structure {
	case "nmtree":
		// External tree: k+3 leaves (3 sentinel leaves), internals = leaves-1,
		// minus the two fixed sentinel internals already counted.
		return uint64(2*(k+3) - 1)
	default: // list, hashmap, bonsai: one node per key
		return uint64(k)
	}
}

func TestNewMapUnknown(t *testing.T) {
	if _, err := NewMap("btree", testConfig("ebr", 1)); err == nil {
		t.Fatal("unknown structure did not error")
	}
}

func TestSchemeSupports(t *testing.T) {
	cases := []struct {
		scheme, structure string
		want              bool
	}{
		{"poibr", "list", false},
		{"poibr", "bonsai", true},
		{"poibr", "stack", true},
		{"hp", "bonsai", false},
		{"he", "bonsai", false},
		{"hp", "nmtree", true},
		{"ebr", "bonsai", true},
		{"tagibr", "list", true},
		// The post-paper engines protect whole operations (no per-pointer
		// slots), so every structure is legal — including the ones HP/HE
		// must skip.
		{"hyaline", "bonsai", true},
		{"hyaline", "skiplist", true},
		{"debra", "bonsai", true},
		{"debra", "skiplist", true},
	}
	for _, c := range cases {
		if got := SchemeSupports(c.scheme, c.structure); got != c.want {
			t.Errorf("SchemeSupports(%q,%q) = %v, want %v", c.scheme, c.structure, got, c.want)
		}
	}
}

// TestMapSequentialModel drives each structure (under EBR) against a Go map
// with a long random op sequence.
func TestMapSequentialModel(t *testing.T) {
	for _, structure := range mapStructures {
		t.Run(structure, func(t *testing.T) {
			m := newTestMap(t, structure, "ebr", 1)
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(42))
			const keyRange = 128
			for i := 0; i < 20000; i++ {
				key := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					val := uint64(i)
					_, inModel := model[key]
					if got := m.Insert(0, key, val); got == inModel {
						t.Fatalf("op %d: Insert(%d) = %v, model has=%v", i, key, got, inModel)
					}
					if !inModel {
						model[key] = val
					}
				case 1:
					_, inModel := model[key]
					if got := m.Remove(0, key); got != inModel {
						t.Fatalf("op %d: Remove(%d) = %v, model has=%v", i, key, got, inModel)
					}
					delete(model, key)
				default:
					want, inModel := model[key]
					got, ok := m.Get(0, key)
					if ok != inModel || (ok && got != want) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, key, got, ok, want, inModel)
					}
				}
			}
			checkKeysMatchModel(t, m, model)
		})
	}
}

func checkKeysMatchModel(t *testing.T, m Map, model map[uint64]uint64) {
	t.Helper()
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := m.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys(): %d keys, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
		if v, ok := m.Get(0, got[i]); !ok || v != model[got[i]] {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", got[i], v, ok, model[got[i]])
		}
	}
}

// TestMapSequentialModel_Quick is a testing/quick-style randomized property
// run with different seeds per structure, catching order-dependent bugs the
// fixed-seed test misses.
func TestMapSequentialModel_Quick(t *testing.T) {
	for _, structure := range mapStructures {
		t.Run(structure, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				m := newTestMap(t, structure, "tagibr", 1)
				model := map[uint64]uint64{}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2000; i++ {
					key := uint64(rng.Intn(40))
					if rng.Intn(2) == 0 {
						_, in := model[key]
						if m.Insert(0, key, key*3) == in {
							t.Fatalf("seed %d: Insert(%d) inconsistent", seed, key)
						}
						model[key] = key * 3
					} else {
						_, in := model[key]
						if m.Remove(0, key) != in {
							t.Fatalf("seed %d: Remove(%d) inconsistent", seed, key)
						}
						delete(model, key)
					}
				}
				checkKeysMatchModel(t, m, model)
			}
		})
	}
}

func TestFillThenOperate(t *testing.T) {
	for _, structure := range mapStructures {
		t.Run(structure, func(t *testing.T) {
			m := newTestMap(t, structure, "2geibr", 1)
			var pairs []KV
			for k := uint64(0); k < 500; k += 2 {
				pairs = append(pairs, KV{Key: k, Val: k + 1})
			}
			m.Fill(pairs)
			if got := m.Keys(); len(got) != 250 {
				t.Fatalf("after Fill: %d keys, want 250", len(got))
			}
			if v, ok := m.Get(0, 48); !ok || v != 49 {
				t.Fatalf("Get(48) = (%d,%v), want (49,true)", v, ok)
			}
			if m.Insert(0, 48, 0) {
				t.Fatal("Insert of filled key succeeded")
			}
			if !m.Insert(0, 49, 50) {
				t.Fatal("Insert of absent key failed")
			}
			if !m.Remove(0, 48) {
				t.Fatal("Remove of filled key failed")
			}
			if _, ok := m.Get(0, 48); ok {
				t.Fatal("removed key still present")
			}
		})
	}
}

func TestFillDuplicatesAndUnsorted(t *testing.T) {
	for _, structure := range mapStructures {
		t.Run(structure, func(t *testing.T) {
			m := newTestMap(t, structure, "ebr", 1)
			m.Fill([]KV{{5, 1}, {1, 2}, {5, 3}, {3, 4}, {1, 5}})
			got := m.Keys()
			want := []uint64{1, 3, 5}
			if len(got) != len(want) {
				t.Fatalf("Keys() = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Keys() = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestMapConcurrentDisjointModel is the main correctness stress: each
// thread owns a disjoint key range and checks every operation's result
// against its private model — any lost update, phantom key, or
// use-after-free-induced corruption shows up as a model mismatch or a
// poisoned value. Runs over the full (structure × applicable scheme) grid.
func TestMapConcurrentDisjointModel(t *testing.T) {
	const (
		threads  = 4
		iters    = 3000
		keysEach = 64
	)
	for _, structure := range mapStructures {
		for _, scheme := range core.Names() {
			if !SchemeSupports(scheme, structure) {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				m := newTestMap(t, structure, scheme, threads)
				var wg sync.WaitGroup
				models := make([]map[uint64]uint64, threads)
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						model := map[uint64]uint64{}
						models[tid] = model
						base := uint64(tid) * 1000
						rng := rand.New(rand.NewSource(int64(tid) * 7919))
						for i := 0; i < iters; i++ {
							key := base + uint64(rng.Intn(keysEach))
							switch rng.Intn(4) {
							case 0, 1:
								val := uint64(i)*uint64(threads) + uint64(tid)
								_, in := model[key]
								if m.Insert(tid, key, val) == in {
									t.Errorf("tid %d: Insert(%d) inconsistent with model", tid, key)
									return
								}
								if !in {
									model[key] = val
								}
							case 2:
								_, in := model[key]
								if m.Remove(tid, key) != in {
									t.Errorf("tid %d: Remove(%d) inconsistent with model", tid, key)
									return
								}
								delete(model, key)
							default:
								want, in := model[key]
								got, ok := m.Get(tid, key)
								if ok != in || (ok && got != want) {
									t.Errorf("tid %d: Get(%d) = (%d,%v), model (%d,%v)", tid, key, got, ok, want, in)
									return
								}
							}
						}
					}(tid)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				// Union of models must equal the final key set.
				union := map[uint64]uint64{}
				for _, model := range models {
					for k, v := range model {
						union[k] = v
					}
				}
				checkKeysMatchModel(t, m, union)

				// Leak accounting (quiescent): drain every retire list and
				// compare live slots against the reachable structure.
				inst := m.(Instrumented)
				if sl, ok := m.(*SkipList); ok {
					sl.Sweep(0) // release ghost routers before accounting
				}
				if scheme != "none" {
					core.DrainAll(inst.Scheme(), threads)
					st := inst.PoolStats()
					if want := expectedNodes(structure, len(union)); st.Live() != want {
						t.Fatalf("leak check: %d live slots, want %d (allocs %d frees %d)",
							st.Live(), want, st.Allocs, st.Frees)
					}
				}
				if b, ok := m.(*Bonsai); ok {
					if err := b.Validate(); err != nil {
						t.Fatal(err)
					}
				}
				if sl, ok := m.(*SkipList); ok {
					if err := sl.Validate(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestMapConcurrentSharedKeys hammers a tiny shared key range from all
// threads — maximum contention on the same nodes — and then checks
// structural invariants and leak accounting.
func TestMapConcurrentSharedKeys(t *testing.T) {
	const (
		threads = 4
		iters   = 4000
		keys    = 16
	)
	for _, structure := range mapStructures {
		for _, scheme := range []string{"none", "ebr", "hp", "he", "poibr", "tagibr", "tagibr-wcas", "2geibr", "hyaline", "debra"} {
			if !SchemeSupports(scheme, structure) {
				continue
			}
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				m := newTestMap(t, structure, scheme, threads)
				var wg sync.WaitGroup
				for tid := 0; tid < threads; tid++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(tid)*104729 + 7))
						for i := 0; i < iters; i++ {
							key := uint64(rng.Intn(keys))
							switch rng.Intn(3) {
							case 0:
								m.Insert(tid, key, key*2+1)
							case 1:
								m.Remove(tid, key)
							default:
								if v, ok := m.Get(tid, key); ok && v != key*2+1 {
									t.Errorf("Get(%d) returned corrupted value %d", key, v)
									return
								}
							}
						}
					}(tid)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				got := m.Keys()
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("Keys() not strictly sorted: %v", got)
					}
				}
				inst := m.(Instrumented)
				if sl, ok := m.(*SkipList); ok {
					sl.Sweep(0)
				}
				if scheme != "none" {
					core.DrainAll(inst.Scheme(), threads)
					st := inst.PoolStats()
					if want := expectedNodes(structure, len(got)); st.Live() != want {
						t.Fatalf("leak check: %d live, want %d", st.Live(), want)
					}
				}
				if b, ok := m.(*Bonsai); ok {
					if err := b.Validate(); err != nil {
						t.Fatal(err)
					}
				}
				if sl, ok := m.(*SkipList); ok {
					if err := sl.Validate(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestBonsaiBalanceAfterSkewedLoad(t *testing.T) {
	m := newTestMap(t, "bonsai", "poibr", 1).(*Bonsai)
	// Ascending inserts are the classic BST worst case.
	for k := uint64(0); k < 4096; k++ {
		m.Insert(0, k, k)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remove every other key; balance must survive deletion too.
	for k := uint64(0); k < 4096; k += 2 {
		m.Remove(0, k)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Keys()); got != 2048 {
		t.Fatalf("%d keys left, want 2048", got)
	}
}

func TestNMTreeSentinelsUntouchable(t *testing.T) {
	m := newTestMap(t, "nmtree", "ebr", 1).(*NMTree)
	m.Insert(0, 1, 1)
	m.Remove(0, 1)
	// The sentinel internals must still be wired after churn.
	if m.w.Pool().Get(m.rootR).key != nmInf2 || m.w.Pool().Get(m.rootS).key != nmInf1 {
		t.Fatal("sentinel keys corrupted")
	}
	if !m.w.Pool().Get(m.rootR).left.Raw().SameAddr(m.rootS) {
		t.Fatal("R.left no longer points at S")
	}
}

func TestKeyLimitEnforced(t *testing.T) {
	for _, structure := range []string{"nmtree", "bonsai", "skiplist"} {
		m := newTestMap(t, structure, "ebr", 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: oversized key did not panic", structure)
				}
			}()
			m.Insert(0, KeyLimit, 1)
		}()
	}
}

// --- Stack tests ---

func TestStackSequential(t *testing.T) {
	for _, scheme := range []string{"ebr", "poibr", "hp", "tagibr-wcas"} {
		t.Run(scheme, func(t *testing.T) {
			st, err := NewStack(testConfig(scheme, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Pop(0); ok {
				t.Fatal("pop from empty stack succeeded")
			}
			for i := uint64(1); i <= 100; i++ {
				st.Push(0, i)
			}
			if st.Len() != 100 {
				t.Fatalf("Len = %d, want 100", st.Len())
			}
			for i := uint64(100); i >= 1; i-- {
				v, ok := st.Pop(0)
				if !ok || v != i {
					t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := st.Pop(0); ok {
				t.Fatal("stack not empty at end")
			}
		})
	}
}

func TestStackConcurrentConservation(t *testing.T) {
	const threads, per = 4, 5000
	for _, scheme := range []string{"ebr", "poibr", "hp", "he", "tagibr", "2geibr"} {
		t.Run(scheme, func(t *testing.T) {
			st, err := NewStack(testConfig(scheme, threads))
			if err != nil {
				t.Fatal(err)
			}
			var pushed, popped [threads]uint64
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < per; i++ {
						if rng.Intn(2) == 0 {
							if st.Push(tid, uint64(i)+1) {
								pushed[tid]++
							}
						} else {
							if _, ok := st.Pop(tid); ok {
								popped[tid]++
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			var p, q uint64
			for i := 0; i < threads; i++ {
				p += pushed[i]
				q += popped[i]
			}
			if got := uint64(st.Len()); got != p-q {
				t.Fatalf("Len = %d, want pushed-popped = %d", got, p-q)
			}
			core.DrainAll(st.Scheme(), threads)
			if live := st.PoolStats().Live(); live != p-q {
				t.Fatalf("leak: %d live, want %d", live, p-q)
			}
		})
	}
}

// --- Queue tests ---

func TestQueueSequentialFIFO(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "he", "tagibr", "tagibr-wcas", "2geibr"} {
		t.Run(scheme, func(t *testing.T) {
			q, err := NewQueue(testConfig(scheme, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("dequeue from empty queue succeeded")
			}
			for i := uint64(1); i <= 100; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= 100; i++ {
				v, ok := q.Dequeue(0)
				if !ok || v != i {
					t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if q.Len() != 0 {
				t.Fatal("queue not empty at end")
			}
		})
	}
}

func TestQueueConcurrentFIFOPerProducer(t *testing.T) {
	// With concurrent producers, global FIFO order is undefined, but each
	// producer's values must be consumed in that producer's order.
	const producers, per = 3, 4000
	for _, scheme := range []string{"ebr", "hp", "tagibr", "2geibr"} {
		t.Run(scheme, func(t *testing.T) {
			threads := producers + 1
			q, err := NewQueue(testConfig(scheme, threads))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						// value = producer id in high bits, sequence in low
						for !q.Enqueue(p, uint64(p)<<32|uint64(i)) {
						}
					}
				}(p)
			}
			seen := make([]int64, producers)
			for i := range seen {
				seen[i] = -1
			}
			consumed := 0
			done := make(chan struct{})
			go func() {
				defer close(done)
				tid := producers
				for consumed < producers*per {
					v, ok := q.Dequeue(tid)
					if !ok {
						continue
					}
					p := int(v >> 32)
					seq := int64(v & 0xffffffff)
					if seq <= seen[p] {
						t.Errorf("producer %d: saw seq %d after %d", p, seq, seen[p])
						return
					}
					seen[p] = seq
					consumed++
				}
			}()
			wg.Wait()
			<-done
			if t.Failed() {
				return
			}
			if q.Len() != 0 {
				t.Fatalf("queue has %d leftovers", q.Len())
			}
			core.DrainAll(q.Scheme(), threads)
			if live := q.PoolStats().Live(); live != 1 { // the dummy
				t.Fatalf("leak: %d live, want 1 (dummy)", live)
			}
		})
	}
}

// TestListWorstCaseChain checks long-chain traversal with interleaved
// removals at a boundary (regression guard for window validation).
func TestListWorstCaseChain(t *testing.T) {
	m := newTestMap(t, "list", "tagibr", 2)
	var pairs []KV
	for k := uint64(0); k < 2000; k++ {
		pairs = append(pairs, KV{k, k})
	}
	m.Fill(pairs)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // remover sweeps forward
		defer wg.Done()
		for k := uint64(0); k < 2000; k += 2 {
			m.Remove(0, k)
		}
	}()
	go func() { // reader sweeps backward
		defer wg.Done()
		for k := int64(1999); k >= 0; k-- {
			if v, ok := m.Get(1, uint64(k)); ok && v != uint64(k) {
				t.Errorf("Get(%d) corrupted: %d", k, v)
				return
			}
		}
	}()
	wg.Wait()
	if got := len(m.Keys()); got != 1000 {
		t.Fatalf("%d keys left, want 1000", got)
	}
}

func TestStructuresList(t *testing.T) {
	want := map[string]bool{}
	for _, s := range Structures() {
		want[s] = true
	}
	for _, s := range []string{"list", "hashmap", "nmtree", "bonsai", "stack", "msqueue"} {
		if !want[s] {
			t.Fatalf("Structures() missing %q", s)
		}
	}
}

func TestHashMapBucketSpread(t *testing.T) {
	m := newTestMap(t, "hashmap", "ebr", 1).(*HashMap)
	counts := map[*core.Ptr]int{}
	for k := uint64(0); k < 1024; k++ {
		counts[m.bucket(k)]++
	}
	if len(counts) < len(m.buckets)/2 {
		t.Fatalf("1024 consecutive keys landed in only %d/%d buckets", len(counts), len(m.buckets))
	}
}

func ExampleMap() {
	m, _ := NewMap("hashmap", Config{Scheme: "tagibr", Core: core.Options{Threads: 1}})
	m.Insert(0, 7, 700)
	v, ok := m.Get(0, 7)
	fmt.Println(v, ok)
	// Output: 700 true
}

// TestNMTreeFragmentChurn is the regression test for the stale-fragment
// redirect bug (DESIGN.md finding iii): a tiny key range drives constant
// overlapping deletes, maximizing detached-fragment traffic. Freed-node
// poison turns any read through a recycled slot into a visible corruption,
// and the final accounting proves the fragment walk retires exactly the
// detached nodes. Run with -race for the full proof.
func TestNMTreeFragmentChurn(t *testing.T) {
	for _, scheme := range []string{"tagibr", "tagibr-wcas", "2geibr", "hp", "he", "ebr"} {
		t.Run(scheme, func(t *testing.T) {
			const threads, iters, keys = 4, 30000, 8
			m := newTestMap(t, "nmtree", scheme, threads).(*NMTree)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						k := uint64(i*7+tid*3) % keys
						m.Insert(tid, k, k*2+1)
						m.Remove(tid, (k+3)%keys)
						if v, ok := m.Get(tid, (k+5)%keys); ok && v != ((k+5)%keys)*2+1 {
							t.Errorf("Get returned corrupted value %d (freed slot reached?)", v)
							return
						}
					}
				}(tid)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			core.DrainAll(m.Scheme(), threads)
			got := m.Keys()
			if want := expectedNodes("nmtree", len(got)); m.PoolStats().Live() != want {
				t.Fatalf("leak: %d live, want %d", m.PoolStats().Live(), want)
			}
		})
	}
}
