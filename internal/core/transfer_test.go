package core

import (
	"testing"

	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// churnRetire allocates and immediately retires n blocks on tid, advancing
// the clock between retirements so the retire epochs spread out.
func churnRetire(t *testing.T, rig *testRig, tid, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h := rig.scheme.Alloc(tid)
		if h.IsNil() {
			t.Fatalf("tid %d: pool exhausted after %d blocks", tid, i)
		}
		rig.scheme.Retire(tid, h)
	}
}

// assertStoreInvariants checks the retire-store invariants every scan relies
// on: bucket keys strictly ascending, no empty bucket retained, retire
// epochs sorted within each bucket's live window, births inside the
// bucket's birth bounds, and the live total matching count.
func assertStoreInvariants(t *testing.T, st *retireStore) {
	t.Helper()
	total := 0
	for bi := range st.buckets {
		bk := &st.buckets[bi]
		if bi > 0 && st.buckets[bi-1].key >= bk.key {
			t.Fatalf("bucket keys out of order at %d: %d >= %d", bi, st.buckets[bi-1].key, bk.key)
		}
		if bk.live() <= 0 {
			t.Fatalf("bucket %d (key %d) is empty but still present", bi, bk.key)
		}
		total += bk.live()
		for k := bk.start; k < len(bk.retires); k++ {
			if k > bk.start && bk.retires[k-1] > bk.retires[k] {
				t.Fatalf("bucket %d retire order violated at %d: %d > %d",
					bi, k, bk.retires[k-1], bk.retires[k])
			}
			if birth := bk.births[k]; birth < bk.birthLo || birth > bk.birthHi {
				t.Fatalf("bucket %d birth %d outside bounds [%d, %d]",
					bi, birth, bk.birthLo, bk.birthHi)
			}
		}
	}
	if total != st.count {
		t.Fatalf("store count = %d but live entries = %d", st.count, total)
	}
}

// TestAdoptRetiredMergesByRetireEpoch: adoption must interleave the two
// retire lists by retire epoch, because the prefix (EBR) and merge-pointer
// (summarized) scans rely on monotone order. A naive append would place an
// old orphaned backlog after the adopter's fresh tail and strand it.
func TestAdoptRetiredMergesByRetireEpoch(t *testing.T) {
	for _, name := range []string{"ebr", "tagibr", "2geibr", "debra"} {
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, name, 3)
			s := rig.scheme
			// Pin everything: tid 2 publishes a reservation at the first
			// epoch, so the churn below cannot be reclaimed by cadence scans.
			s.StartOp(2)
			// Interleave retirements across tids 0 and 1 (the clock advances
			// every EpochFreq=4 allocations, so epochs genuinely interleave).
			for round := 0; round < 8; round++ {
				churnRetire(t, rig, 0, 3)
				churnRetire(t, rig, 1, 3)
			}
			from := s.Unreclaimed(0)
			if from == 0 {
				t.Fatal("tid 0 retired nothing despite the pin")
			}
			before := s.Unreclaimed(1)

			n := s.AdoptRetired(0, 1)
			if n != from {
				t.Fatalf("AdoptRetired moved %d blocks, want %d", n, from)
			}
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("source list kept %d blocks after adoption", got)
			}
			if got := s.Unreclaimed(1); got != before+from {
				t.Fatalf("adopter has %d blocks, want %d", got, before+from)
			}
			// The merged store must preserve the per-bucket invariants the
			// scans rely on: every bucket's live retire epochs monotone,
			// birth bounds covering its blocks, keys matching the births.
			st := s.(interface{ threadStore(int) *retireStore }).threadStore(1)
			assertStoreInvariants(t, st)
			// With the pin withdrawn, one drain of the adopter must reclaim
			// the whole merged backlog — the drains-to-zero half of the
			// quarantine story.
			s.EndOp(2)
			s.Drain(1)
			if got := s.Unreclaimed(1); got != 0 {
				t.Fatalf("%d blocks unreclaimed after adoption + drain", got)
			}
		})
	}
}

// TestAdoptRetiredHyalineUnsealed: for Hyaline, adoption moves exactly the
// victim's *unsealed* accumulation (its open batch) — sealed batches are
// already handed off and free through their reference counts, so they are
// not the adopter's to take. The merged open batch must stay in retire-epoch
// order so the adopter's next seal produces an age-ordered batch, and a
// quiescent drain after adoption must reclaim everything.
func TestAdoptRetiredHyalineUnsealed(t *testing.T) {
	rig := newRig(t, "hyaline", 3)
	s := rig.scheme.(*Hyaline)
	s.StartOp(2) // keep slot 2 active so sealed batches stay in flight
	// 11 retires per tid with EmptyFreq=4: three seals (cadence), 3 blocks
	// left unsealed on each — interleaved so the retire epochs interleave.
	for round := 0; round < 2; round++ {
		churnRetire(t, rig, 0, 4)
		churnRetire(t, rig, 1, 4)
	}
	churnRetire(t, rig, 0, 3)
	churnRetire(t, rig, 1, 3)
	unsealed := s.ts[0].store.count
	if unsealed == 0 {
		t.Fatal("tid 0 has no unsealed blocks; the scenario is vacuous")
	}
	inflight := s.inflight[0].n.Load()
	if inflight == 0 {
		t.Fatal("tid 0 has no sealed batches in flight; the scenario is vacuous")
	}
	beforeUnsealed := s.ts[1].store.count

	n := s.AdoptRetired(0, 1)
	if n != unsealed {
		t.Fatalf("AdoptRetired moved %d blocks, want the %d unsealed", n, unsealed)
	}
	if got := s.ts[0].store.count; got != 0 {
		t.Fatalf("source kept %d unsealed blocks after adoption", got)
	}
	// The victim's in-flight blocks stay charged to it until their batches
	// free — adoption must not touch the reference-counted handoff.
	if got := s.inflight[0].n.Load(); got != inflight {
		t.Fatalf("inflight[0] = %d after adoption, want %d untouched", got, inflight)
	}
	merged := s.ts[1].store.snapshot()
	if len(merged) != beforeUnsealed+unsealed {
		t.Fatalf("adopter has %d unsealed blocks, want %d", len(merged), beforeUnsealed+unsealed)
	}
	assertStoreInvariants(t, &s.ts[1].store)
	// Quiescence: slot 2 leaves (dropping the in-flight batches' references)
	// and the adopter seals its merged batch with no slot active — everything
	// must free.
	s.EndOp(2)
	s.Drain(1)
	for tid := 0; tid < 3; tid++ {
		if got := s.Unreclaimed(tid); got != 0 {
			t.Fatalf("tid %d: %d blocks unreclaimed after quiescent drain", tid, got)
		}
	}
}

// TestClearReservationUnpins: clearing a stalled tid's reservation on its
// behalf must let other threads' scans reclaim the backlog it pinned,
// without that tid ever calling EndOp — drain-without-resume.
func TestClearReservationUnpins(t *testing.T) {
	for _, name := range []string{"ebr", "poibr", "tagibr", "tagibr-wcas", "2geibr", "debra", "hyaline"} {
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, name, 2)
			s := rig.scheme
			s.StartOp(0) // the stalled thread: publishes and never withdraws
			churnRetire(t, rig, 1, 64)
			s.Drain(1)
			if got := s.Unreclaimed(1); got == 0 {
				t.Fatal("reservation did not pin the backlog; test is vacuous")
			}
			s.ClearReservation(0)
			if lo := s.Reservations().At(0).Lower(); lo != epoch.None {
				t.Fatalf("reservation lower = %d after clear, want None", lo)
			}
			s.Drain(1)
			if got := s.Unreclaimed(1); got != 0 {
				t.Fatalf("%d blocks unreclaimed after clearing the stalled reservation", got)
			}
		})
	}
}

// TestClearReservationHazardSlots: the HP/HE overrides clear the per-slot
// protections, which is their form of a published reservation.
func TestClearReservationHazardSlots(t *testing.T) {
	rig := newRig(t, "hp", 2)
	s := rig.scheme.(*HP)
	h := s.Alloc(0)
	var p Ptr
	s.Write(0, &p, h)
	s.StartOp(0)
	if got := s.Read(0, 0, &p); got.Addr() != h.Addr() {
		t.Fatalf("Read = %v, want %v", got, h)
	}
	rig.scheme.ClearReservation(0)
	for i := range s.haz[0] {
		if v := s.haz[0][i].v.Load(); v != 0 {
			t.Fatalf("hazard slot %d still holds %#x after clear", i, v)
		}
	}
}

// TestTakeAllocFailed: a Nil return from Scheme.Alloc for exhaustion sets
// the per-tid flag exactly once (clear-on-read), and a successful Alloc
// resets it — the signal the serving engine turns into StatusBusy.
func TestTakeAllocFailed(t *testing.T) {
	pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 8})
	s, err := New("none", pool, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.TakeAllocFailed(0) {
		t.Fatal("flag set before any Alloc")
	}
	for i := 0; i < 8; i++ {
		if s.Alloc(0).IsNil() {
			t.Fatalf("pool exhausted early at %d", i)
		}
	}
	if !s.Alloc(0).IsNil() {
		t.Fatal("expected exhaustion")
	}
	if !s.TakeAllocFailed(0) {
		t.Fatal("exhausted Alloc did not set the flag")
	}
	if s.TakeAllocFailed(0) {
		t.Fatal("flag not cleared on read")
	}
}
