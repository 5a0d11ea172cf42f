package core

import (
	"math/rand"
	"testing"

	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// TestDEBRANeutralizeLifecycle walks the signal protocol end to end:
// ClearReservation latches the flag and clears the epoch reservation
// (signaled); the next StartOp on that tid consumes the flag (observed)
// and publishes a fresh reservation. The counters converge and the flag
// is one-shot.
func TestDEBRANeutralizeLifecycle(t *testing.T) {
	_, qs := quietScheme(t, "debra", 2)
	s := qs.(*DEBRA)
	s.StartOp(0)
	if s.Neutralized(0) {
		t.Fatal("fresh tid reports a pending neutralization")
	}
	s.ClearReservation(0)
	if !s.Neutralized(0) {
		t.Fatal("ClearReservation did not latch the neutralize flag")
	}
	if lo := s.Reservations().At(0).Lower(); lo != epoch.None {
		t.Fatalf("reservation lower = %d after neutralization, want None", lo)
	}
	if sig, obs := s.NeutralizeStats(); sig != 1 || obs != 0 {
		t.Fatalf("stats = (%d signaled, %d observed), want (1, 0)", sig, obs)
	}
	s.StartOp(0) // the sigsetjmp site: consume and restart
	if s.Neutralized(0) {
		t.Fatal("StartOp did not consume the neutralization")
	}
	if lo := s.Reservations().At(0).Lower(); lo == epoch.None {
		t.Fatal("restarted operation published no reservation")
	}
	if sig, obs := s.NeutralizeStats(); sig != 1 || obs != 1 {
		t.Fatalf("stats = (%d signaled, %d observed), want (1, 1)", sig, obs)
	}
	s.EndOp(0)
	s.StartOp(0) // a normal start must not count as observing anything
	if _, obs := s.NeutralizeStats(); obs != 1 {
		t.Fatalf("observed = %d after a normal StartOp, want still 1", obs)
	}
	s.EndOp(0)
}

// TestDEBRANeutralizationDrainsWithoutResume is the scheme-level half of
// the quarantine acceptance scenario: a stalled tid pins a backlog;
// neutralizing it (without it ever calling EndOp) lets the survivor's next
// drain free everything, and the stalled tid's eventual restart is safe —
// it observes the signal and publishes a fresh epoch.
func TestDEBRANeutralizationDrainsWithoutResume(t *testing.T) {
	rig := newRig(t, "debra", 2)
	s := rig.scheme.(*DEBRA)
	s.StartOp(0) // the staller: publishes and never withdraws
	churnRetire(t, rig, 1, 64)
	s.Drain(1)
	if got := s.Unreclaimed(1); got == 0 {
		t.Fatal("stalled reservation did not pin the backlog; test is vacuous")
	}
	s.ClearReservation(0)
	s.Drain(1)
	if got := s.Unreclaimed(1); got != 0 {
		t.Fatalf("%d blocks unreclaimed after neutralizing the staller", got)
	}
	// The staller "wakes": its next StartOp restarts instead of resuming.
	s.StartOp(0)
	if s.Neutralized(0) {
		t.Fatal("restart did not consume the neutralization")
	}
	s.EndOp(0)
}

// TestDEBRABagsDrainAsPrefix: each run of equal retire stamps is one limbo
// bag; with nobody reserved, one drain frees every expired bag as a whole
// prefix of the ordered retire list.
func TestDEBRABagsDrainAsPrefix(t *testing.T) {
	pool, qs := quietScheme(t, "debra", 1)
	s := qs.(*DEBRA)
	clk := qs.Clock()
	alloc := func() mem.Handle {
		h := s.Alloc(0)
		if h.IsNil() {
			t.Fatal("pool exhausted")
		}
		return h
	}
	// Three bags: three retirements in the first epoch, two in each of the
	// next two.
	for i := 0; i < 3; i++ {
		s.Retire(0, alloc())
	}
	for e := 0; e < 2; e++ {
		clk.Advance()
		s.Retire(0, alloc())
		s.Retire(0, alloc())
	}
	clk.Advance()
	s.Drain(0)
	if got := s.Unreclaimed(0); got != 0 {
		t.Fatalf("%d blocks unreclaimed after draining the expired bags", got)
	}
	if live := pool.Stats().Live(); live != 0 {
		t.Fatalf("%d slots live after the drain", live)
	}
}

// TestDEBRADrainMatchesEBR is the differential test: DEBRA's data path is
// EBR by construction, so under an identical random schedule of retires,
// reservations, and drains, both schemes must keep and free exactly the
// same counts at every step. Divergence means the neutralization machinery
// leaked into the reclamation logic.
func TestDEBRADrainMatchesEBR(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, d := quietScheme(t, "debra", 4)
		_, e := quietScheme(t, "ebr", 4)
		rng := rand.New(rand.NewSource(seed))
		both := [2]Scheme{d, e}

		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0: // a reader pins or unpins
				tid := 1 + rng.Intn(3)
				if rng.Intn(2) == 0 {
					for _, s := range both {
						s.StartOp(tid)
					}
				} else {
					for _, s := range both {
						s.EndOp(tid)
					}
				}
			case 1: // the clock advances (same drift on both)
				for _, s := range both {
					s.Clock().Advance()
				}
			case 2, 3: // retire a few blocks on tid 0
				n := 1 + rng.Intn(4)
				for _, s := range both {
					for i := 0; i < n; i++ {
						h := s.Alloc(0)
						if h.IsNil() {
							t.Fatal("pool exhausted")
						}
						s.Retire(0, h)
					}
				}
			default:
				for _, s := range both {
					s.Drain(0)
				}
			}
			if du, eu := d.Unreclaimed(0), e.Unreclaimed(0); du != eu {
				t.Fatalf("seed %d step %d: debra keeps %d, ebr keeps %d", seed, step, du, eu)
			}
		}
		dst, est := d.ScanStats(), e.ScanStats()
		if dst.Freed != est.Freed || dst.Scanned != est.Scanned {
			t.Fatalf("seed %d: scan stats diverge: debra %+v, ebr %+v", seed, dst, est)
		}
	}
}
