package ds

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ibr/internal/core"
	"ibr/internal/mem"
)

func newTestBonsai(t *testing.T, scheme string, threads int) *Bonsai {
	t.Helper()
	b, err := NewBonsai(testConfig(scheme, threads))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBonsaiEmpty(t *testing.T) {
	b := newTestBonsai(t, "poibr", 1)
	if _, ok := b.Get(0, 1); ok {
		t.Fatal("Get on empty tree found a key")
	}
	if b.Remove(0, 1) {
		t.Fatal("Remove on empty tree succeeded")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBonsaiNoOpCreatesNothing: failed inserts/removes must not allocate,
// retire, or replace anything (the no-copy fast path).
func TestBonsaiNoOpCreatesNothing(t *testing.T) {
	b := newTestBonsai(t, "poibr", 1)
	for k := uint64(0); k < 100; k++ {
		b.Insert(0, k, k)
	}
	core.DrainAll(b.Scheme(), 1)
	before := b.PoolStats()
	if b.Insert(0, 50, 99) {
		t.Fatal("duplicate insert succeeded")
	}
	if b.Remove(0, 1000) {
		t.Fatal("remove of absent key succeeded")
	}
	core.DrainAll(b.Scheme(), 1)
	after := b.PoolStats()
	if after.Allocs != before.Allocs || after.Live() != before.Live() {
		t.Fatalf("no-op operations changed accounting: %+v -> %+v", before, after)
	}
}

// TestBonsaiPathCopyCount: an insert must copy exactly the root-to-leaf
// path (plus rotation nodes), and retire the same number of replaced nodes.
func TestBonsaiPathCopying(t *testing.T) {
	b := newTestBonsai(t, "poibr", 1)
	for k := uint64(0); k < 64; k++ {
		b.Insert(0, k*2, k)
	}
	core.DrainAll(b.Scheme(), 1)
	before := b.PoolStats()
	if !b.Insert(0, 63, 1) { // interior key: full path copy
		t.Fatal("insert failed")
	}
	core.DrainAll(b.Scheme(), 1)
	after := b.PoolStats()
	created := after.Allocs - before.Allocs
	// Live grows by exactly 1 (the new key), everything else copied and
	// the originals reclaimed.
	if after.Live() != before.Live()+1 {
		t.Fatalf("live delta = %d, want 1", after.Live()-before.Live())
	}
	// Path length in a balanced 64-node tree is ~log2(64) ± rotations.
	if created < 2 || created > 20 {
		t.Fatalf("insert created %d nodes; expected a short path copy", created)
	}
}

// TestBonsaiSnapshotIsolation: a reader traversing an old root must see the
// exact state at its snapshot even while writers churn.
func TestBonsaiSnapshotIsolation(t *testing.T) {
	b := newTestBonsai(t, "poibr", 2)
	for k := uint64(0); k < 512; k++ {
		b.Insert(0, k, k)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() { // writer: churn odd keys
		defer wg.Done()
		for i := 0; i < 200; i++ {
			k := uint64(i%256)*2 + 1
			b.Insert(0, k, k)
			b.Remove(0, k)
		}
		stop.Store(true)
	}()
	wg.Add(1)
	go func() { // reader: even keys are immutable and must always be intact
		defer wg.Done()
		for !stop.Load() {
			for k := uint64(0); k < 512; k += 2 {
				if v, ok := b.Get(1, k); !ok || v != k {
					t.Errorf("even key %d = (%d,%v) during churn", k, v, ok)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestBonsaiBalanceUnderRandomChurn: the weight-balance invariant must
// survive arbitrary interleavings of inserts and deletes.
func TestBonsaiBalanceUnderRandomChurn(t *testing.T) {
	b := newTestBonsai(t, "tagibr", 1)
	rng := rand.New(rand.NewSource(99))
	model := map[uint64]bool{}
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			b.Insert(0, k, k)
			model[k] = true
		} else {
			b.Remove(0, k)
			delete(model, k)
		}
		if i%5000 == 0 {
			if err := b.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Keys()); got != len(model) {
		t.Fatalf("%d keys, model has %d", got, len(model))
	}
}

// TestBonsaiDepthIsLogarithmic: ascending inserts (BST worst case) must
// still yield an O(log n) tree.
func TestBonsaiDepthIsLogarithmic(t *testing.T) {
	b := newTestBonsai(t, "poibr", 1)
	const n = 1 << 13
	for k := uint64(0); k < n; k++ {
		b.Insert(0, k, k)
	}
	depth := 0
	var walk func(h mem.Handle, d int)
	walk = func(h mem.Handle, d int) {
		if h.IsNil() {
			return
		}
		if d > depth {
			depth = d
		}
		n := b.w.Pool().Get(h)
		walk(n.left.Raw(), d+1)
		walk(n.right.Raw(), d+1)
	}
	walk(b.root.Raw(), 1)
	// Weight-balanced with delta=3: height <= ~log_{4/3}(n) ≈ 2.41 log2 n.
	if limit := 2*13 + 8; depth > limit {
		t.Fatalf("depth %d for %d ascending inserts; want <= %d", depth, n, limit)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBonsaiExtractBoundaries: removing the min and max repeatedly drives
// the extractMin/extractMax glue paths.
func TestBonsaiExtractBoundaries(t *testing.T) {
	b := newTestBonsai(t, "2geibr", 1)
	for k := uint64(0); k < 200; k++ {
		b.Insert(0, k, k)
	}
	for k := uint64(0); k < 100; k++ {
		if !b.Remove(0, k) { // ascending: always the min
			t.Fatalf("Remove(min=%d) failed", k)
		}
		if !b.Remove(0, 199-k) { // descending: always the max
			t.Fatalf("Remove(max=%d) failed", 199-k)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("after removing %d/%d: %v", k, 199-k, err)
		}
	}
	if got := len(b.Keys()); got != 0 {
		t.Fatalf("%d keys left", got)
	}
	core.DrainAll(b.Scheme(), 1)
	if live := b.PoolStats().Live(); live != 0 {
		t.Fatalf("%d nodes leaked", live)
	}
}

// TestBonsaiFailedCASReclaimsPrivateVersion: under write contention, losing
// builders must free their entire private path copy.
func TestBonsaiFailedCASCleanup(t *testing.T) {
	const threads = 4
	b := newTestBonsai(t, "poibr", threads)
	for k := uint64(0); k < 256; k++ {
		b.Insert(0, k*2, k)
	}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(512))
				if rng.Intn(2) == 0 {
					b.Insert(tid, k, k)
				} else {
					b.Remove(tid, k)
				}
			}
		}(tid)
	}
	wg.Wait()
	core.DrainAll(b.Scheme(), threads)
	keys := b.Keys()
	if live := b.PoolStats().Live(); live != uint64(len(keys)) {
		t.Fatalf("live %d != keys %d: lost private copies or leaked versions", live, len(keys))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}
