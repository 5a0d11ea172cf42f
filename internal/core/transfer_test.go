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
