package ds

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/core"
)

func newTestSkipList(t *testing.T, scheme string, threads int) *SkipList {
	t.Helper()
	sl, err := NewSkipList(testConfig(scheme, threads))
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

func TestSkipListEmpty(t *testing.T) {
	sl := newTestSkipList(t, "ebr", 1)
	if _, ok := sl.Get(0, 1); ok {
		t.Fatal("Get on empty skiplist found a key")
	}
	if sl.Remove(0, 1) {
		t.Fatal("Remove on empty skiplist succeeded")
	}
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListLevelDistribution: tower heights must be roughly geometric;
// a broken generator (all height 1 or all max) would degrade to a list.
func TestSkipListLevelDistribution(t *testing.T) {
	sl := newTestSkipList(t, "ebr", 1)
	counts := make([]int, MaxLevel+1)
	for i := 0; i < 100000; i++ {
		l := sl.randomLevel(0)
		if l < 1 || l > MaxLevel {
			t.Fatalf("randomLevel = %d out of [1,%d]", l, MaxLevel)
		}
		counts[l]++
	}
	if counts[1] < 40000 || counts[1] > 60000 {
		t.Fatalf("P(level=1) = %d/100000, want ~0.5", counts[1])
	}
	if counts[2] < 20000 || counts[2] > 30000 {
		t.Fatalf("P(level=2) = %d/100000, want ~0.25", counts[2])
	}
	tall := 0
	for l := 5; l <= MaxLevel; l++ {
		tall += counts[l]
	}
	if tall < 3000 || tall > 10000 {
		t.Fatalf("P(level>=5) = %d/100000, want ~0.0625", tall)
	}
}

// TestSkipListTallTowersIndex: with enough keys, upper levels must be
// populated and Validate's sub-sequence property must hold.
func TestSkipListTallTowers(t *testing.T) {
	sl := newTestSkipList(t, "tagibr", 1)
	for k := uint64(0); k < 4096; k++ {
		sl.Insert(0, k, k)
	}
	levelsUsed := 0
	for l := 0; l < MaxLevel; l++ {
		if !sl.head.next[l].Raw().IsNil() {
			levelsUsed++
		}
	}
	if levelsUsed < 8 {
		t.Fatalf("only %d levels populated for 4096 keys", levelsUsed)
	}
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListLinkCountLifecycle: a node's link count must reach zero (and
// the node be reclaimed) after removal, for towers of every height.
func TestSkipListLinkCountLifecycle(t *testing.T) {
	sl := newTestSkipList(t, "ebr", 1)
	for k := uint64(0); k < 2000; k++ {
		sl.Insert(0, k, k)
	}
	for k := uint64(0); k < 2000; k++ {
		if !sl.Remove(0, k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	sl.Sweep(0)
	core.DrainAll(sl.Scheme(), 1)
	if live := sl.PoolStats().Live(); live != 0 {
		t.Fatalf("%d towers leaked (link counts stuck)", live)
	}
}

// TestSkipListConcurrentSameKey: racing insert/remove of one key must stay
// linearizable (each successful remove is preceded by a successful insert).
func TestSkipListConcurrentSameKey(t *testing.T) {
	const threads = 4
	sl := newTestSkipList(t, "tagibr", threads)
	var ins, rem [threads]int
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if i%2 == tid%2 {
					if sl.Insert(tid, 7, uint64(tid)) {
						ins[tid]++
					}
				} else {
					if sl.Remove(tid, 7) {
						rem[tid]++
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	totalIns, totalRem := 0, 0
	for i := 0; i < threads; i++ {
		totalIns += ins[i]
		totalRem += rem[i]
	}
	_, present := sl.Get(0, 7)
	want := totalIns - totalRem
	got := 0
	if present {
		got = 1
	}
	if want != got {
		t.Fatalf("inserts %d - removes %d = %d, but present=%v", totalIns, totalRem, want, present)
	}
}

// TestSkipListSweepReleasesGhosts: artificially interleave an insert's
// late upper-level link with removal traffic, then check Sweep leaves no
// ghost routers behind. (Driven statistically: heavy same-key churn with
// tall towers.)
func TestSkipListSweepReleasesGhosts(t *testing.T) {
	const threads = 4
	sl := newTestSkipList(t, "2geibr", threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)))
			for i := 0; i < 10000; i++ {
				k := uint64(rng.Intn(32))
				if rng.Intn(2) == 0 {
					sl.Insert(tid, k, k)
				} else {
					sl.Remove(tid, k)
				}
			}
		}(tid)
	}
	wg.Wait()
	sl.Sweep(0)
	core.DrainAll(sl.Scheme(), threads)
	keys := sl.Keys()
	if live := sl.PoolStats().Live(); live != uint64(len(keys)) {
		t.Fatalf("live %d != keys %d after sweep (ghost routers leaked)", live, len(keys))
	}
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// churnSchemes are the schemes the churn tests run: every interval scheme
// that can run the skip list, and EBR as the control.
var churnSchemes = []string{"tagibr", "tagibr-wcas", "tagibr-tpa", "tagibr-faa", "2geibr", "ebr"}

// TestSkipListChurn: four writers insert and remove keys 0..63 with an
// epoch advance on every allocation and a scan on every retirement, so
// nodes are born after a traversal's upper endpoint and freed within
// microseconds. A traversal that follows a pointer out of a marked word,
// or an inserter that touches its published node without holding it,
// reads a freed slot (a panic under -tags ibrdebug, a poisoned value
// otherwise).
func TestSkipListChurn(t *testing.T) {
	for _, scheme := range churnSchemes {
		t.Run(scheme, func(t *testing.T) { churnSkipList(t, scheme, false) })
	}
}

// TestSkipListRangeChurn is TestSkipListChurn plus a fifth goroutine that
// runs Range(0, 63) throughout; every pass must be strictly ascending and
// carry each key's value 2k+1.
func TestSkipListRangeChurn(t *testing.T) {
	for _, scheme := range churnSchemes {
		t.Run(scheme, func(t *testing.T) { churnSkipList(t, scheme, true) })
	}
}

// churnSkipList runs the churn tests' workload for 2 s (0.2 s under
// -short), then checks at quiescence that every key left maps to 2k+1 and
// that, after Sweep and DrainAll, exactly the remaining keys' nodes are
// live.
func churnSkipList(t *testing.T, scheme string, scan bool) {
	const writers, keys = 4, 64
	threads := writers
	if scan {
		threads++
	}
	cfg := testConfig(scheme, threads)
	cfg.Core.EpochFreq, cfg.Core.EmptyFreq = 1, 1
	sl, err := NewSkipList(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := 2 * time.Second
	if testing.Short() {
		d = 200 * time.Millisecond
	}
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stop.Store(true)
	}
	for tid := 0; tid < writers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			for !stop.Load() {
				k := uint64(rng.Intn(keys))
				switch r := rng.Intn(8); {
				case r < 3:
					sl.Insert(tid, k, 2*k+1)
				case r < 6:
					sl.Remove(tid, k)
				default:
					if v, ok := sl.Get(tid, k); ok && v != 2*k+1 {
						fail(fmt.Errorf("Get(%d) = %d, want %d", k, v, 2*k+1))
					}
				}
			}
		}(tid)
	}
	if scan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				next := uint64(0)
				sl.Range(writers, 0, keys-1, func(k, v uint64) bool {
					if k < next || k >= keys || v != 2*k+1 {
						fail(fmt.Errorf("Range(0, %d) gave %d→%d; want keys ascending from %d, values 2k+1", keys-1, k, v, next))
						return false
					}
					next = k + 1
					return true
				})
			}
		}()
	}
	deadline := time.Now().Add(d)
	for !stop.Load() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
	sl.Sweep(0)
	core.DrainAll(sl.Scheme(), threads)
	left := sl.Keys()
	for _, k := range left {
		if v, ok := sl.Get(0, k); !ok || v != 2*k+1 {
			t.Fatalf("key %d: Get = (%d, %v), want %d", k, v, ok, 2*k+1)
		}
	}
	if live := sl.PoolStats().Live(); live != uint64(len(left)) {
		t.Fatalf("%d live slots after Sweep and DrainAll, want %d (one per key)", live, len(left))
	}
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListRejectsHPHE: fixed-slot schemes cannot run the skip list.
func TestSkipListSchemeRestrictions(t *testing.T) {
	for _, scheme := range []string{"hp", "he", "poibr"} {
		if SchemeSupports(scheme, "skiplist") {
			t.Errorf("SchemeSupports(%q, skiplist) = true", scheme)
		}
	}
	for _, scheme := range []string{"none", "ebr", "tagibr", "tagibr-faa", "tagibr-wcas", "tagibr-tpa", "2geibr"} {
		if !SchemeSupports(scheme, "skiplist") {
			t.Errorf("SchemeSupports(%q, skiplist) = false", scheme)
		}
	}
}
