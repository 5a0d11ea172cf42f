package mem

import (
	"sync"
	"testing"
)

func TestFreeBatchBasics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	var hs []Handle
	stamps := map[Handle]uint64{}
	for i := 0; i < 10; i++ {
		h, ok := p.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		stamps[h] = p.Stamp(h)
		hs = append(hs, h)
	}
	p.FreeBatches(0, hs)
	for _, h := range hs {
		if p.State(h) != StateFree {
			t.Fatalf("%v: state = %v after FreeBatches, want free", h, p.State(h))
		}
		if p.Stamp(h) != stamps[h]+1 {
			t.Fatalf("%v: stamp = %d, want %d (one bump per free)", h, p.Stamp(h), stamps[h]+1)
		}
	}
	if st := p.Stats(); st.Frees != 10 {
		t.Fatalf("Frees = %d, want 10", st.Frees)
	}
	// The slots are genuinely reusable.
	for i := 0; i < 10; i++ {
		if _, ok := p.Alloc(0); !ok {
			t.Fatalf("alloc %d after FreeBatches failed", i)
		}
	}
}

func TestFreeBatchRetiredSlots(t *testing.T) {
	// Reclamation scans free Retired slots, not Live ones; both transitions
	// must be accepted, exactly as in Free.
	p := newTestPool(t, 1, 0)
	live, _ := p.Alloc(0)
	retired, _ := p.Alloc(0)
	p.SetRetireEpoch(retired, 3)
	p.MarkRetired(retired)
	p.FreeBatches(0, []Handle{live, retired})
	if p.State(live) != StateFree || p.State(retired) != StateFree {
		t.Fatalf("states = %v/%v, want free/free", p.State(live), p.State(retired))
	}
}

func TestFreeBatchEmptyIsNoop(t *testing.T) {
	p := newTestPool(t, 1, 0)
	p.FreeBatches(0, nil)
	p.FreeBatches(0, []Handle{})
	if st := p.Stats(); st.Frees != 0 {
		t.Fatalf("Frees = %d after empty batches, want 0", st.Frees)
	}
}

func TestFreeBatchPoisons(t *testing.T) {
	p := New[testNode](Options[testNode]{
		Threads: 1,
		Poison:  func(n *testNode) { n.key, n.val = 0xDEAD, 0xDEAD },
	})
	var hs []Handle
	for i := 0; i < 4; i++ {
		h, _ := p.Alloc(0)
		n := p.Get(h)
		n.key, n.val = uint64(i), uint64(i)
		hs = append(hs, h)
	}
	p.FreeBatches(0, hs)
	for _, h := range hs {
		// get, not Get: reading a freed body is the point here, and the
		// ibrdebug build would (rightly) panic on the public accessor.
		if n := p.get(h); n.key != 0xDEAD || n.val != 0xDEAD {
			t.Fatalf("%v: body = %+v, want poison", h, *n)
		}
	}
}

func TestFreeBatchDoubleFreePanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	h, _ := p.Alloc(0)
	other, _ := p.Alloc(0)
	p.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeBatches of an already-free slot did not panic")
		}
	}()
	p.FreeBatches(0, []Handle{other, h})
}

func TestFreeBatchNilPanics(t *testing.T) {
	p := newTestPool(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeBatches of Nil did not panic")
		}
	}()
	p.FreeBatches(0, []Handle{Nil})
}

// TestFreeBatchSpillHysteresis checks the one-lock spill: a batch that
// overfills the thread cache drains it to the same low-water mark Free's
// per-slot hysteresis converges to, and the spilled slots reach the global
// list where another thread can refill from them.
func TestFreeBatchSpillHysteresis(t *testing.T) {
	p := newTestPool(t, 2, 0)
	const n = 300
	var hs []Handle
	for i := 0; i < n; i++ {
		h, ok := p.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		hs = append(hs, h)
	}
	leftover := len(p.caches[0].slots) // refill batches over-carve a little
	p.FreeBatches(0, hs)

	if got, want := len(p.caches[0].slots), cacheCap-refillBatch; got != want {
		t.Fatalf("cache holds %d slots after spill, want low-water mark %d", got, want)
	}
	if got, want := len(p.freeList), leftover+n-(cacheCap-refillBatch); got != want {
		t.Fatalf("global free list holds %d slots, want %d", got, want)
	}
	// A different thread's refill sees the spilled slots.
	if _, ok := p.Alloc(1); !ok {
		t.Fatal("tid 1 could not alloc from spilled slots")
	}
}

// TestFreeBatchSmallBatchStaysCached: a batch that fits under cacheCap must
// not touch the global list at all.
func TestFreeBatchSmallBatchStaysCached(t *testing.T) {
	p := newTestPool(t, 1, 0)
	var hs []Handle
	for i := 0; i < 16; i++ {
		h, _ := p.Alloc(0)
		hs = append(hs, h)
	}
	p.FreeBatches(0, hs)
	if len(p.freeList) != 0 {
		t.Fatalf("global free list got %d slots from an under-cap batch", len(p.freeList))
	}
}

// TestFreeBatchesMultiSlice: the variadic form frees every slice under one
// acquisition — nil and empty slices mixed in are fine, the total reaches
// the counters, and an all-empty call is a no-op.
func TestFreeBatchesMultiSlice(t *testing.T) {
	p := newTestPool(t, 1, 0)
	var g1, g2 []Handle
	for i := 0; i < 6; i++ {
		h, _ := p.Alloc(0)
		g1 = append(g1, h)
	}
	for i := 0; i < 4; i++ {
		h, _ := p.Alloc(0)
		g2 = append(g2, h)
	}
	p.FreeBatches(0, g1, nil, []Handle{}, g2)
	for _, h := range append(append([]Handle{}, g1...), g2...) {
		if p.State(h) != StateFree {
			t.Fatalf("%v: state = %v after FreeBatches, want free", h, p.State(h))
		}
	}
	if st := p.Stats(); st.Frees != 10 {
		t.Fatalf("Frees = %d, want 10", st.Frees)
	}
	p.FreeBatches(0)
	p.FreeBatches(0, nil, nil)
	if st := p.Stats(); st.Frees != 10 {
		t.Fatalf("Frees = %d after empty FreeBatches, want 10", st.Frees)
	}
}

// TestFreeBatchesSpillHysteresis: an over-cap multi-slice free drains the
// thread cache to the same low-water mark as a single-slice free, with one spill for
// the whole call.
func TestFreeBatchesSpillHysteresis(t *testing.T) {
	p := newTestPool(t, 2, 0)
	const n = 300
	var a, b []Handle
	for i := 0; i < n; i++ {
		h, ok := p.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if i%2 == 0 {
			a = append(a, h)
		} else {
			b = append(b, h)
		}
	}
	leftover := len(p.caches[0].slots)
	p.FreeBatches(0, a, b)
	if got, want := len(p.caches[0].slots), cacheCap-refillBatch; got != want {
		t.Fatalf("cache holds %d slots after spill, want low-water mark %d", got, want)
	}
	if got, want := len(p.freeList), leftover+n-(cacheCap-refillBatch); got != want {
		t.Fatalf("global free list holds %d slots, want %d", got, want)
	}
	if _, ok := p.Alloc(1); !ok {
		t.Fatal("tid 1 could not alloc from spilled slots")
	}
}

// TestFreeBatchConcurrent races batch frees against allocations on distinct
// tids; run with -race. At quiescence every slot must be back in the free
// state with balanced counters.
func TestFreeBatchConcurrent(t *testing.T) {
	const (
		threads = 4
		rounds  = 50
		chunk   = 37 // not a divisor of anything: exercises partial batches
	)
	p := newTestPool(t, threads, 1<<16)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var hs []Handle
			for r := 0; r < rounds; r++ {
				for len(hs) < chunk {
					h, ok := p.Alloc(tid)
					if !ok {
						t.Errorf("tid %d: pool exhausted", tid)
						return
					}
					hs = append(hs, h)
				}
				p.FreeBatches(tid, hs)
				hs = hs[:0]
			}
		}(tid)
	}
	wg.Wait()
	st := p.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d at quiescence", st.Allocs, st.Frees)
	}
	c := p.Census()
	if c.Live != 0 || c.Retired != 0 {
		t.Fatalf("census shows %d live / %d retired after everything was freed", c.Live, c.Retired)
	}
}
