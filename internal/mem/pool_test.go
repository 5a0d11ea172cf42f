package mem

import (
	"math"
	"sync"
	"testing"
)

type testNode struct {
	key, val uint64
}

func newTestPool(t *testing.T, threads int, maxSlots uint64) *Pool[testNode] {
	t.Helper()
	return New[testNode](Options[testNode]{Threads: threads, MaxSlots: maxSlots})
}

func TestAllocBasics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, ok := p.Alloc(0)
	if !ok || h.IsNil() {
		t.Fatal("first Alloc failed")
	}
	if p.State(h) != StateLive {
		t.Fatalf("state = %v, want live", p.State(h))
	}
	if p.RetireEpoch(h) != math.MaxUint64 {
		t.Fatal("live block should have open retire epoch")
	}
	n := p.Get(h)
	n.key, n.val = 7, 8
	if p.Get(h).key != 7 || p.Get(h).val != 8 {
		t.Fatal("body write lost")
	}
}

func TestAllocDistinctSlots(t *testing.T) {
	p := newTestPool(t, 1, 0)
	seen := map[Handle]bool{}
	for i := 0; i < 1000; i++ {
		h, ok := p.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if seen[h] {
			t.Fatalf("slot %v handed out twice without a free", h)
		}
		seen[h] = true
	}
}

func TestFreeThenReuse(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	s0 := p.Stamp(h)
	p.Free(0, h)
	if p.State(h) != StateFree {
		t.Fatal("freed slot not in free state")
	}
	if p.Stamp(h) != s0+1 {
		t.Fatal("stamp did not advance on free")
	}
	// LIFO cache should hand the same slot straight back.
	h2, _ := p.Alloc(0)
	if !h2.SameAddr(h) {
		t.Fatalf("expected immediate reuse of %v, got %v", h, h2)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	p.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(0, h)
}

func TestFreeNilPanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("free of nil did not panic")
		}
	}()
	p.Free(0, Nil)
}

func TestGetNilPanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Get of nil did not panic")
		}
	}()
	p.Get(Nil)
}

func TestRetireTransitions(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	p.MarkRetired(h)
	if p.State(h) != StateRetired {
		t.Fatalf("state = %v, want retired", p.State(h))
	}
	p.Free(0, h) // retired -> free is the reclaim path
	if p.State(h) != StateFree {
		t.Fatal("retired slot did not free")
	}
}

func TestDoubleRetirePanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	p.MarkRetired(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double retire did not panic")
		}
	}()
	p.MarkRetired(h)
}

func TestBirthRetireEpochs(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	p.SetBirth(h, 3)
	p.SetRetireEpoch(h, 9)
	if p.Birth(h) != 3 || p.RetireEpoch(h) != 9 {
		t.Fatalf("epochs = [%d,%d], want [3,9]", p.Birth(h), p.RetireEpoch(h))
	}
	// Marks and packed epochs must not confuse header access.
	if p.Birth(h.WithMark0().WithEpoch(123)) != 3 {
		t.Fatal("header access through decorated handle failed")
	}
}

// TestExhaustion: a pool serves exactly its cap, then (Nil, false). Its
// last slab stops at the cap, so a pool capped below SlabSize carves a
// slab of exactly its cap.
func TestExhaustion(t *testing.T) {
	for _, c := range []struct{ cap, lastSlab uint64 }{{1000, 1000}, {SlabSize + 10, 10}} {
		p := newTestPool(t, 1, c.cap)
		var hs []Handle
		for {
			h, ok := p.Alloc(0)
			if !ok {
				break
			}
			hs = append(hs, h)
		}
		if uint64(len(hs)) != c.cap {
			t.Fatalf("allocated %d slots from a %d-slot pool", len(hs), c.cap)
		}
		if h, ok := p.Alloc(0); ok || h != Nil {
			t.Fatalf("Alloc past the cap = (%v, %v), want (Nil, false)", h, ok)
		}
		slabs := *p.slabs.Load()
		if got := uint64(len(slabs[len(slabs)-1].slots)); got != c.lastSlab {
			t.Errorf("cap %d: last slab holds %d slots, want %d", c.cap, got, c.lastSlab)
		}
		// Freeing makes slots available again.
		p.Free(0, hs[0])
		if _, ok := p.Alloc(0); !ok {
			t.Fatal("alloc failed after a free")
		}
	}
}

func TestPoisonApplied(t *testing.T) {
	p := New[testNode](Options[testNode]{
		Threads: 1,
		Poison:  func(n *testNode) { n.key, n.val = 0xDEAD, 0xBEEF },
	})
	h, _ := p.Alloc(0)
	p.Get(h).key = 1
	p.Free(0, h)
	// get, not Get: reading a freed body is the point here, and the
	// ibrdebug build would (rightly) panic on the public accessor.
	if p.get(h).key != 0xDEAD || p.get(h).val != 0xBEEF {
		t.Fatal("poison not applied on free")
	}
}

func TestStats(t *testing.T) {
	p := newTestPool(t, 2, 0)
	var hs []Handle
	for i := 0; i < 10; i++ {
		h, _ := p.Alloc(i % 2)
		hs = append(hs, h)
	}
	p.Free(0, hs[0])
	st := p.Stats()
	if st.Allocs != 10 || st.Frees != 1 || st.Live() != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Slabs != 1 {
		t.Fatalf("expected 1 slab, got %d", st.Slabs)
	}
}

func TestSlabGrowth(t *testing.T) {
	p := newTestPool(t, 1, 3*SlabSize)
	last := Nil
	for i := 0; i < 2*SlabSize+10; i++ {
		h, ok := p.Alloc(0)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		last = h
	}
	if st := p.Stats(); st.Slabs != 3 {
		t.Fatalf("expected 3 slabs, got %d", st.Slabs)
	}
	p.Get(last).key = 5 // touch a slot in the last slab
	if p.Get(last).key != 5 {
		t.Fatal("slot in grown slab unusable")
	}
}

func TestCrossThreadFree(t *testing.T) {
	// Thread 0 allocates, thread 1 frees (a reclaimer freeing another
	// thread's block), thread 1 then reuses it.
	p := newTestPool(t, 2, 0)
	h, _ := p.Alloc(0)
	p.Free(1, h)
	h2, _ := p.Alloc(1)
	if !h2.SameAddr(h) {
		t.Fatalf("thread 1 should reuse freed slot, got %v want %v", h2, h)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const threads = 8
	const iters = 20000
	p := New[testNode](Options[testNode]{Threads: threads, MaxSlots: 1 << 16})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var held []Handle
			for i := 0; i < iters; i++ {
				if len(held) < 32 {
					h, ok := p.Alloc(tid)
					if !ok {
						t.Errorf("tid %d: pool exhausted unexpectedly", tid)
						return
					}
					p.Get(h).key = uint64(tid)
					held = append(held, h)
				} else {
					h := held[len(held)-1]
					held = held[:len(held)-1]
					if p.Get(h).key != uint64(tid) {
						t.Errorf("tid %d: slot body clobbered while live", tid)
						return
					}
					p.Free(tid, h)
				}
			}
			for _, h := range held {
				p.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
	st := p.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("leak: allocs %d != frees %d", st.Allocs, st.Frees)
	}
}

func TestConcurrentUniqueOwnership(t *testing.T) {
	// No slot may ever be live in two threads at once. Each thread writes
	// its tid into every slot it holds and re-checks before freeing.
	const threads = 6
	p := New[testNode](Options[testNode]{Threads: threads, MaxSlots: 4096})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 30000; i++ {
				h, ok := p.Alloc(tid)
				if !ok {
					continue
				}
				n := p.Get(h)
				n.key = uint64(tid)
				n.val = uint64(i)
				if n.key != uint64(tid) || n.val != uint64(i) {
					t.Errorf("slot shared between threads")
					return
				}
				p.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
}

func TestCensus(t *testing.T) {
	p := newTestPool(t, 1, 0)
	var live, retired []Handle
	for i := 0; i < 10; i++ {
		h, _ := p.Alloc(0)
		live = append(live, h)
	}
	for i := 0; i < 3; i++ {
		p.MarkRetired(live[i])
		retired = append(retired, live[i])
	}
	p.Free(0, retired[0])
	c := p.Census()
	if c.Live != 7 || c.Retired != 2 || c.Free != 55 { // 64 carved - 9 in use
		t.Fatalf("census = %+v", c)
	}
}
