package core

import (
	"math/rand"
	"testing"

	"ibr/internal/mem"
)

// mkHandle fabricates distinct handles for store-level unit tests (the store
// never dereferences them).
func mkHandle(t *testing.T, pool *mem.Pool[tnode]) mem.Handle {
	t.Helper()
	h, ok := pool.Alloc(0)
	if !ok {
		t.Fatal("pool exhausted")
	}
	return h
}

// TestRetireStoreAddBuckets: add routes blocks to buckets by birth>>shift,
// keeps keys sorted, tracks exact birth bounds, and keeps retires ascending
// per bucket under a monotone clock.
func TestRetireStoreAddBuckets(t *testing.T) {
	pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 256})
	var st retireStore
	const shift = 2 // 4-epoch buckets
	// Births hit buckets 0,1,3 out of order within an epoch but under a
	// monotone retire clock.
	births := []uint64{1, 2, 5, 6, 13, 0, 7}
	for i, b := range births {
		st.add(mkHandle(t, pool), b, uint64(10+i), shift)
	}
	if st.count != len(births) {
		t.Fatalf("count = %d, want %d", st.count, len(births))
	}
	wantKeys := []uint64{0, 1, 3}
	if len(st.buckets) != len(wantKeys) {
		t.Fatalf("got %d buckets, want %d", len(st.buckets), len(wantKeys))
	}
	for i, k := range wantKeys {
		if st.buckets[i].key != k {
			t.Fatalf("bucket %d key = %d, want %d", i, st.buckets[i].key, k)
		}
	}
	assertStoreInvariants(t, &st)
	if b0 := &st.buckets[0]; b0.birthLo != 0 || b0.birthHi != 2 {
		t.Fatalf("bucket 0 birth bounds [%d, %d], want [0, 2]", b0.birthLo, b0.birthHi)
	}
}

// TestRetireStoreTakeAllSorted: takeAll drains everything sorted by retire
// epoch (Hyaline's seal order) and leaves the store reusable.
func TestRetireStoreTakeAllSorted(t *testing.T) {
	pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 256})
	var st retireStore
	rng := rand.New(rand.NewSource(7))
	clock := uint64(0)
	for i := 0; i < 100; i++ {
		clock += uint64(rng.Intn(3))
		st.add(mkHandle(t, pool), clock, clock, defaultBucketShift)
	}
	out := st.takeAll()
	if len(out) != 100 || st.count != 0 || len(st.buckets) != 0 {
		t.Fatalf("takeAll returned %d (count=%d, buckets=%d), want 100/0/0",
			len(out), st.count, len(st.buckets))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].retire > out[i].retire {
			t.Fatalf("takeAll order violated at %d: %d > %d", i, out[i-1].retire, out[i].retire)
		}
	}
	// The store still accepts adds after a full drain.
	st.add(mkHandle(t, pool), 5, 5, defaultBucketShift)
	if st.count != 1 {
		t.Fatalf("count = %d after post-drain add, want 1", st.count)
	}
}

// TestStoreCompactionReleasesStallBacklog is the heap-retention regression
// test: a stalled reservation grows one thread's backlog to tens of
// thousands of blocks; once the stall clears and a drain frees the huge
// prefix, the store must not keep the stall-sized backing arrays pinned
// behind the few survivors (the old `retired = list[i:]` reslice did exactly
// that). EBR stamps no births, so everything lands in one bucket and the
// drain exercises the partial-free compaction path.
func TestStoreCompactionReleasesStallBacklog(t *testing.T) {
	_, s := quietScheme(t, "ebr", 2)
	clk := s.Clock()

	const blocks = 40000
	for i := 0; i < blocks; i++ {
		h := s.Alloc(0)
		if h.IsNil() {
			t.Fatal("pool exhausted")
		}
		s.Retire(0, h)
		if i%16 == 0 {
			clk.Advance()
		}
	}
	st := s.(interface{ threadStore(int) *retireStore }).threadStore(0)
	grown := st.heldCap()
	if grown < blocks {
		t.Fatalf("backing capacity %d after %d retires; the scenario is vacuous", grown, blocks)
	}

	// A reader pins only the most recent epochs: the drain frees the huge
	// prefix and keeps a small tail.
	s.Reservations().At(1).Set(clk.Now(), 1<<60)
	s.Drain(0)
	kept := s.Unreclaimed(0)
	if kept == 0 || kept > 64 {
		t.Fatalf("drain kept %d blocks, want a small pinned tail", kept)
	}
	if got := st.heldCap(); got >= grown/storeCompactFactor {
		t.Fatalf("store still pins %d entries of backing capacity for %d live blocks (was %d); compaction did not run",
			got, kept, grown)
	}

	// Full drain: with the whole bucket freed, the spare-array bound keeps
	// retained capacity at most storeCompactMin.
	s.Reservations().At(1).Clear()
	clk.Advance()
	s.Drain(0)
	if got := s.Unreclaimed(0); got != 0 {
		t.Fatalf("%d blocks survive with no reservations", got)
	}
	if got := st.heldCap(); got > storeCompactMin {
		t.Fatalf("empty store pins %d entries of backing capacity, want <= %d", got, storeCompactMin)
	}
}

// TestEpochAdvanceOneSourcePerOp pins the unified cadence: per thread the
// clock advances exactly once per EpochFreq operations, whether the ops are
// alloc+retire pairs (alloc is the source; retire's fallback stays silent)
// or pure retirements (the fallback is the source). Before unification the
// interval schemes advanced twice per EpochFreq mixed ops.
func TestEpochAdvanceOneSourcePerOp(t *testing.T) {
	for _, name := range []string{"ebr", "poibr", "tagibr", "tagibr-wcas", "2geibr", "he", "debra"} {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 1 << 10})
			s, err := New(name, pool, Options{Threads: 1, EpochFreq: 4, EmptyFreq: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			clk := s.Clock()

			// Phase 1: 8 alloc+retire pairs = 8 ops → exactly 2 advances.
			e0 := clk.Now()
			for i := 0; i < 8; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatal("pool exhausted")
				}
				s.Retire(0, h)
			}
			if d := clk.Now() - e0; d != 2 {
				t.Fatalf("mixed phase advanced the epoch %d times over 8 ops (EpochFreq 4), want 2", d)
			}

			// Phase 2: pre-allocate, then 8 pure retirements → exactly 2
			// advances via the liveness fallback.
			hs := make([]mem.Handle, 8)
			for i := range hs {
				if hs[i] = s.Alloc(0); hs[i].IsNil() {
					t.Fatal("pool exhausted")
				}
			}
			e1 := clk.Now()
			for _, h := range hs {
				s.Retire(0, h)
			}
			if d := clk.Now() - e1; d != 2 {
				t.Fatalf("pure-retire phase advanced the epoch %d times over 8 retires (EpochFreq 4), want 2", d)
			}
		})
	}
}

// TestScanBucketedMatchesNaiveAcrossAdoption extends the scan differential
// test across a reservation cleared mid-stream: two threads churn
// concurrently-interleaved lifetimes, one reservation is cleared on the
// stalled holder's behalf after the backlogs were built (the quarantine
// path), and only then do the threads drain. The bucketed scan must keep
// exactly the blocks the naive per-block conflict sweep predicts from the
// final reservation snapshot — a reservation clear must change nothing
// about the freed set. The name is kept from when the test also covered
// retire-list adoption.
func TestScanBucketedMatchesNaiveAcrossAdoption(t *testing.T) {
	for _, name := range []string{"poibr", "tagibr", "tagibr-wcas", "2geibr"} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				pool, s := quietScheme(t, name, 5)
				rng := rand.New(rand.NewSource(seed))
				clk := s.Clock()

				// tids 2..4 pin reservations; tid 4's will be cleared before
				// the drain, so it must NOT count toward the prediction.
				var ivs []interval
				for tid := 2; tid <= 4; tid++ {
					lo := 1 + rng.Uint64()%150
					hi := lo + rng.Uint64()%80
					s.Reservations().At(tid).Set(lo, hi)
					if tid != 4 {
						ivs = append(ivs, interval{lo, hi, 0})
					}
				}

				// tids 0 and 1 churn interleaved lifetimes.
				const blocks = 200
				for i := 0; i < blocks; i++ {
					tid := i % 2
					h := s.Alloc(tid)
					if h.IsNil() {
						t.Fatal("pool exhausted")
					}
					for n := rng.Intn(3); n > 0; n-- {
						clk.Advance()
					}
					s.Retire(tid, h)
					if rng.Intn(3) == 0 {
						clk.Advance()
					}
				}

				// Quarantine tid 4: clear its reservation (drain-without-resume).
				s.ClearReservation(4)

				for tid := 0; tid <= 1; tid++ {
					// Predict per block from the store's own records.
					st := s.(interface{ threadStore(int) *retireStore }).threadStore(tid)
					assertStoreInvariants(t, st)
					wantKept := 0
					for _, blk := range st.snapshot() {
						if conflicts(ivs, blk.birth, blk.retire) {
							wantKept++
						}
					}

					s.Drain(tid)
					if got := s.Unreclaimed(tid); got != wantKept {
						t.Fatalf("seed %d tid %d: bucketed scan kept %d blocks, naive predicts %d (reservations %v)",
							seed, tid, got, wantKept, ivs)
					}
					// Survivors must be exactly the predicted ones, not merely
					// the predicted number: every kept block still conflicts,
					// per its own birth/retire stamps.
					for _, blk := range st.snapshot() {
						if !conflicts(ivs, blk.birth, blk.retire) {
							t.Fatalf("seed %d tid %d: kept block birth=%d retire=%d conflicts with no reservation",
								seed, tid, blk.birth, blk.retire)
						}
						if pool.State(blk.h) != mem.StateRetired {
							t.Fatalf("seed %d tid %d: kept block in state %v", seed, tid, pool.State(blk.h))
						}
					}
				}

				// Clear the rest: everything frees.
				for tid := 2; tid <= 3; tid++ {
					s.Reservations().At(tid).Clear()
				}
				clk.Advance()
				for tid := 0; tid <= 1; tid++ {
					s.Drain(tid)
					if got := s.Unreclaimed(tid); got != 0 {
						t.Fatalf("seed %d tid %d: %d blocks survive with no reservations", seed, tid, got)
					}
				}
			}
		})
	}
}
