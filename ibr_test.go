package ibr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ibr/internal/ds"
)

func TestFacadeNewMapAllStructures(t *testing.T) {
	for _, structure := range []string{"list", "hashmap", "nmtree", "bonsai", "skiplist"} {
		m, err := NewMap(structure, Config{Scheme: "tagibr", Threads: 2})
		if err != nil {
			t.Fatalf("NewMap(%q): %v", structure, err)
		}
		if !m.Insert(0, 1, 2) {
			t.Fatalf("%s: insert failed", structure)
		}
		if v, ok := m.Get(1, 1); !ok || v != 2 {
			t.Fatalf("%s: get = (%d,%v)", structure, v, ok)
		}
		if !m.Remove(0, 1) {
			t.Fatalf("%s: remove failed", structure)
		}
	}
}

func TestFacadeSchemeList(t *testing.T) {
	schemes := Schemes()
	// 9 paper schemes + "none" + the two post-paper engines (hyaline, debra).
	if len(schemes) != 12 {
		t.Fatalf("Schemes() has %d entries, want 12", len(schemes))
	}
	for _, s := range schemes {
		if s == "" {
			t.Fatal("empty scheme name")
		}
	}
}

func TestFacadeSupportsMatrix(t *testing.T) {
	if Supports("poibr", "hashmap") {
		t.Fatal("POIBR must not run mutable structures")
	}
	if !Supports("poibr", "stack") {
		t.Fatal("POIBR must run the Treiber stack")
	}
	if Supports("hp", "skiplist") {
		t.Fatal("HP must not run the skip list")
	}
}

// TestFacadeRefusesUnsupportedPairs walks every structure and scheme, plus
// an unknown name on each side: NewMap, NewStack and NewQueue succeed
// exactly when Supports does, and refuse with the ds constructors' message
// (an unknown scheme with ds.CheckScheme's, which Validate returns).
func TestFacadeRefusesUnsupportedPairs(t *testing.T) {
	if Supports("bogus", "hashmap") || Supports("ebr", "bogus") {
		t.Error("Supports answers true for an unknown name")
	}
	if _, err := NewMap("bonsai", Config{Scheme: "hp", Threads: 4}); err == nil {
		t.Error(`NewMap("bonsai") under hp succeeded`)
	}
	if _, err := NewQueue(Config{Scheme: "poibr", Threads: 2}); err == nil {
		t.Error("NewQueue under poibr succeeded")
	}
	for _, structure := range append(Structures(), "bogus") {
		for _, scheme := range append(Schemes(), "bogus") {
			cfg := Config{Scheme: scheme, Threads: 1}
			var err, want error
			switch structure {
			case "stack":
				_, err = NewStack(cfg)
				_, want = ds.NewStack(cfg.dsConfig())
			case "msqueue":
				_, err = NewQueue(cfg)
				_, want = ds.NewQueue(cfg.dsConfig())
			default:
				_, err = NewMap(structure, cfg)
				want = ds.CheckMap(structure, scheme)
			}
			what := fmt.Sprintf("%s under %s", structure, scheme)
			switch {
			case Supports(scheme, structure) != (err == nil):
				t.Errorf("%s: %v, but Supports = %v", what, err, Supports(scheme, structure))
			case scheme == "bogus":
				if want := ds.CheckScheme(scheme); err.Error() != want.Error() {
					t.Errorf("%s: %q, want %v", what, err, want)
				}
			case err != nil && (want == nil || err.Error() != want.Error()):
				t.Errorf("%s: %q, want %v", what, err, want)
			}
		}
	}
}

func TestFacadeStackQueue(t *testing.T) {
	st, err := NewStack(Config{Scheme: "poibr", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Push(0, 9)
	if v, ok := st.Pop(0); !ok || v != 9 {
		t.Fatalf("Pop = (%d,%v)", v, ok)
	}
	q, err := NewQueue(Config{Scheme: "2geibr", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(0, 3)
	q.Enqueue(0, 4)
	if v, _ := q.Dequeue(0); v != 3 {
		t.Fatalf("Dequeue = %d, want 3 (FIFO)", v)
	}
}

func TestFacadeDrain(t *testing.T) {
	m, _ := NewMap("hashmap", Config{Scheme: "tagibr", Threads: 2})
	for k := uint64(0); k < 100; k++ {
		m.Insert(0, k, k)
	}
	for k := uint64(0); k < 100; k++ {
		m.Remove(0, k)
	}
	inst := m.(Instrumented)
	Drain(inst, 2)
	if live := inst.PoolStats().Live(); live != 0 {
		t.Fatalf("%d live after Drain of an emptied map", live)
	}
}

func TestFacadeRunBench(t *testing.T) {
	res, err := RunBench(BenchConfig{
		Structure: "hashmap", Scheme: "2geibr", Threads: 2,
		Duration: 20 * time.Millisecond, KeyRange: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Mops <= 0 {
		t.Fatalf("bench made no progress: %+v", res)
	}
}

func TestFacadeConfigTuning(t *testing.T) {
	// Non-default knobs must flow through to the scheme.
	m, err := NewMap("list", Config{
		Scheme: "tagibr", Threads: 3, EpochFreq: 7, EmptyFreq: 3, Slots: 4,
		PoolSlots: 1 << 10, Buckets: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the tiny pool; the structure must fail operations cleanly
	// rather than wedge.
	okCount := 0
	for k := uint64(0); k < 2000; k++ {
		if m.Insert(0, k, k) {
			okCount++
		}
	}
	if okCount == 0 || okCount > 1024 {
		t.Fatalf("inserted %d into a 1024-slot pool", okCount)
	}
}

func TestFacadeConcurrentSmoke(t *testing.T) {
	m, _ := NewMap("skiplist", Config{Scheme: "tagibr-wcas", Threads: 4})
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			base := uint64(tid) * 10000
			for k := uint64(0); k < 2000; k++ {
				m.Insert(tid, base+k, k)
			}
			for k := uint64(0); k < 2000; k += 2 {
				m.Remove(tid, base+k)
			}
		}(tid)
	}
	wg.Wait()
	if got := len(m.Keys()); got != 4000 {
		t.Fatalf("%d keys, want 4000", got)
	}
}

func TestKeyLimitExported(t *testing.T) {
	if KeyLimit != uint64(1)<<62 {
		t.Fatalf("KeyLimit = %d", KeyLimit)
	}
}

func TestFacadeConcreteTypes(t *testing.T) {
	m, _ := NewMap("bonsai", Config{Scheme: "poibr", Threads: 1})
	b, ok := m.(*Bonsai)
	if !ok {
		t.Fatal("bonsai Map not assertable to *ibr.Bonsai")
	}
	for k := uint64(0); k < 20; k++ {
		b.Insert(0, k, k)
	}
	n := 0
	b.Range(0, 5, 14, func(k, v uint64) bool { n++; return true })
	if n != 10 {
		t.Fatalf("Range visited %d, want 10", n)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	l, _ := NewMap("list", Config{Scheme: "ebr", Threads: 1})
	if _, ok := l.(*List); !ok {
		t.Fatal("list Map not assertable to *ibr.List")
	}
	sl, _ := NewMap("skiplist", Config{Scheme: "tagibr", Threads: 1})
	s := sl.(*SkipList)
	s.Insert(0, 1, 1)
	s.Sweep(0)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
