package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// TestResSummaryMatchesNaive_Quick is the differential property test for
// the summarized conflict test: on any reservation snapshot and any block
// lifetime, resSummary.conflicts must return exactly what the naive linear
// sweep returns. This is the correctness argument for every interval scan.
func TestResSummaryMatchesNaive_Quick(t *testing.T) {
	f := func(los, his [6]uint16, n uint8, b16, len16 uint16) bool {
		// Variable-size snapshots, including the empty one.
		ivs := make([]interval, 0, 6)
		for i := 0; i < int(n%7); i++ {
			lo, hi := uint64(los[i]), uint64(his[i])
			if lo > hi {
				lo, hi = hi, lo
			}
			ivs = append(ivs, interval{lo, hi, 0})
		}
		birth := uint64(b16)
		retire := birth + uint64(len16)
		naive := conflicts(ivs, birth, retire)
		var sum resSummary
		sum.build(append([]interval(nil), ivs...)) // build re-sorts in place
		return sum.conflicts(birth, retire) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// TestResSummaryEdgeCases pins the boundary values quick.Check is unlikely
// to hit: the empty snapshot, epoch.None endpoints (a thread with a lower
// bound published and no upper yet reserves everything from lo on), and
// exact endpoint touches.
func TestResSummaryEdgeCases(t *testing.T) {
	cases := []struct {
		name          string
		ivs           []interval
		birth, retire uint64
		want          bool
	}{
		{"empty snapshot", nil, 0, epoch.None, false},
		{"touch at lo", []interval{{5, 9, 0}}, 1, 5, true},
		{"touch at hi", []interval{{5, 9, 0}}, 9, 20, true},
		{"just before lo", []interval{{5, 9, 0}}, 1, 4, false},
		{"just after hi", []interval{{5, 9, 0}}, 10, 20, false},
		{"open upper (None)", []interval{{5, epoch.None, 0}}, 100, 200, true},
		{"retire at None", []interval{{5, 9, 0}}, 3, epoch.None, true},
		{"gap between intervals", []interval{{1, 2, 0}, {8, 9, 0}}, 3, 7, false},
		{"covered by later interval", []interval{{1, 2, 0}, {8, 9, 0}}, 3, 8, true},
		{"earlier interval reaches highest", []interval{{1, 100, 0}, {8, 9, 0}}, 50, 200, true},
	}
	for _, c := range cases {
		var sum resSummary
		sum.build(append([]interval(nil), c.ivs...))
		if got := sum.conflicts(c.birth, c.retire); got != c.want {
			t.Errorf("%s: summarized = %v, want %v", c.name, got, c.want)
		}
		if got := conflicts(c.ivs, c.birth, c.retire); got != c.want {
			t.Errorf("%s: naive = %v, want %v (test oracle is wrong)", c.name, got, c.want)
		}
	}
}

// quietScheme builds a scheme whose cadence never fires on its own
// (EpochFreq/EmptyFreq effectively infinite), so a test controls the clock
// and every scan explicitly.
func quietScheme(t *testing.T, name string, threads int) (*mem.Pool[tnode], Scheme) {
	t.Helper()
	pool := mem.New[tnode](mem.Options[tnode]{Threads: threads, MaxSlots: 1 << 16})
	s, err := New(name, pool, Options{Threads: threads, EpochFreq: 1 << 30, EmptyFreq: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return pool, s
}

// TestScanSummarizedMatchesNaiveFullScan drives a whole scan (not just the
// predicate) differentially: retire a few hundred blocks with scattered
// lifetimes under randomly pinned reservations, predict each block's fate
// with the naive conflict sweep, then Drain once and check the scan kept
// exactly the predicted survivors — i.e. the summary fast path, the
// protected-window run-skip, and the merge pointer change nothing. EBR and
// DEBRA reserve [lo, ∞), so their reservations are drawn open-ended.
func TestScanSummarizedMatchesNaiveFullScan(t *testing.T) {
	for _, name := range []string{"ebr", "debra", "poibr", "tagibr", "tagibr-faa", "tagibr-wcas", "tagibr-tpa", "2geibr"} {
		open := name == "ebr" || name == "debra"
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				pool, s := quietScheme(t, name, 4)
				rng := rand.New(rand.NewSource(seed))
				clk := s.Clock()

				// Pin reservations for tids 1..3 over a band of the epochs
				// the blocks will live in; tid 0 (the scanner) stays idle.
				var ivs []interval
				for tid := 1; tid < 4; tid++ {
					if rng.Intn(4) == 0 {
						continue // this thread stays idle
					}
					lo := 1 + rng.Uint64()%200
					hi := lo + rng.Uint64()%100
					if open {
						hi = epoch.None
					}
					s.Reservations().At(tid).Set(lo, hi)
					ivs = append(ivs, interval{lo, hi, 0})
				}

				type lifetime struct{ birth, retire uint64 }
				var lives []lifetime
				const blocks = 300
				for i := 0; i < blocks; i++ {
					h := s.Alloc(0)
					if h.IsNil() {
						t.Fatal("pool exhausted")
					}
					birth := pool.Birth(h)
					for n := rng.Intn(3); n > 0; n-- {
						clk.Advance()
					}
					lives = append(lives, lifetime{birth: birth, retire: clk.Now()})
					s.Retire(0, h)
					if rng.Intn(2) == 0 {
						clk.Advance()
					}
				}

				wantKept := 0
				for _, l := range lives {
					if conflicts(ivs, l.birth, l.retire) {
						wantKept++
					}
				}

				s.Drain(0)
				st := s.ScanStats()
				if got := s.Unreclaimed(0); got != wantKept {
					t.Fatalf("seed %d: scan kept %d blocks, naive predicts %d (reservations %v)",
						seed, got, wantKept, ivs)
				}
				if want := uint64(blocks - wantKept); st.Freed != want {
					t.Fatalf("seed %d: freed %d, want %d", seed, st.Freed, want)
				}

				// Release every reservation: a second scan must free the rest.
				for tid := 1; tid < 4; tid++ {
					s.Reservations().At(tid).Clear()
				}
				clk.Advance()
				s.Drain(0)
				if got := s.Unreclaimed(0); got != 0 {
					t.Fatalf("seed %d: %d blocks survive with no reservations published", seed, got)
				}
			}
		})
	}
}

// TestScanExaminedDropsWhenPinned is the regression test for the scan cost
// itself: with one stalled reader pinning every retired block, repeated
// scans over the ever-growing backlog must examine O(1) blocks each (the
// store-level keep-all corner test) — not re-walk the whole list. Before the
// summarized scans the mean examined per scan grew linearly with the
// backlog. Scans are driven explicitly every 4 retirements: the adaptive
// drain would (correctly) stop scheduling futile scans on its own, and this
// test is about the cost of a scan that does run, not about how often.
func TestScanExaminedDropsWhenPinned(t *testing.T) {
	for _, name := range []string{"ebr", "poibr", "tagibr", "2geibr"} {
		t.Run(name, func(t *testing.T) {
			_, s := quietScheme(t, name, 2)
			clk := s.Clock()

			// tid 1 is a stalled reader covering every epoch this test uses.
			s.Reservations().At(1).Set(1, 1<<60)

			const blocks = 400
			for i := 0; i < blocks; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatal("pool exhausted")
				}
				s.Retire(0, h)
				if i%2 == 0 {
					clk.Advance() // spread lifetimes across many buckets
				}
				if (i+1)%4 == 0 {
					s.Drain(0)
				}
			}

			st := s.ScanStats()
			if st.Scans < uint64(blocks/4) {
				t.Fatalf("only %d scans ran; the test lost its explicit drains", st.Scans)
			}
			if st.Freed != 0 {
				t.Fatalf("%d blocks freed under a covering reservation", st.Freed)
			}
			if got := s.Unreclaimed(0); got != blocks {
				t.Fatalf("Unreclaimed = %d, want %d", got, blocks)
			}
			// The backlog averaged ~blocks/2 per scan; examining a handful of
			// blocks per scan is the behavior under test. 4.0 leaves slack
			// for scheme-specific effects while still failing any full-list
			// walk by two orders of magnitude.
			if mean := st.MeanListLen(); mean > 4.0 {
				t.Fatalf("mean examined per scan = %.1f over a pinned backlog of %d; scans are re-walking the list",
					mean, blocks)
			}

			// Unpin: the whole backlog reclaims in one scan.
			s.Reservations().At(1).Clear()
			clk.Advance()
			s.Drain(0)
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("%d blocks survive after the reservation cleared", got)
			}
		})
	}
}

// TestAdaptiveDrainBacksOffWhenFutile pins the drain policy itself: under a
// stalled reservation that makes every scan futile, the watermark must back
// off (far fewer scans than retirements/EmptyFreq), and after the pin
// clears, a productive scan must reset the step to the base cadence.
// Hyaline is the counter-case: its seal cadence stays fixed at EmptyFreq.
func TestAdaptiveDrainBacksOffWhenFutile(t *testing.T) {
	for _, name := range []string{"ebr", "tagibr", "2geibr", "debra"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2) // EmptyFreq 4
			s := r.scheme
			s.Reservations().At(1).Set(1, 1<<60)

			const blocks = 400
			for i := 0; i < blocks; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatal("pool exhausted")
				}
				s.Retire(0, h)
			}
			st := s.ScanStats()
			if st.Scans == 0 {
				t.Fatal("no scan ran at all; the watermark never fired")
			}
			// Fixed cadence would run blocks/EmptyFreq = 100 scans; doubling
			// backoff (capped at 32×EmptyFreq=128) runs ~8 over 400 retires.
			if st.Scans > uint64(blocks/8) {
				t.Fatalf("%d futile scans over %d pinned retires; the watermark is not backing off", st.Scans, blocks)
			}

			// Unpin; the next cadence-triggered scan is productive and the
			// step resets: retiring another 2×EmptyFreq blocks must scan at
			// least once and leave at most a cadence-worth unreclaimed.
			s.Reservations().At(1).Clear()
			s.Clock().Advance()
			s.Drain(0)
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("%d blocks survive after the reservation cleared", got)
			}
			before := s.ScanStats().Scans
			for i := 0; i < 8; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatal("pool exhausted")
				}
				s.Retire(0, h)
			}
			after := s.ScanStats().Scans
			if after == before {
				t.Fatal("no scan within 2×EmptyFreq retirements after a productive drain; the step did not reset")
			}
		})
	}
	t.Run("hyaline-fixed-cadence", func(t *testing.T) {
		r := newRig(t, "hyaline", 2)
		s := r.scheme
		s.StartOp(1) // an active slot keeps every sealed batch in flight
		const blocks = 64
		for i := 0; i < blocks; i++ {
			h := s.Alloc(0)
			if h.IsNil() {
				t.Fatal("pool exhausted")
			}
			s.Retire(0, h)
		}
		st := s.ScanStats()
		if want := uint64(blocks / 4); st.Scans != want {
			t.Fatalf("hyaline sealed %d times over %d retires, want the fixed cadence %d", st.Scans, blocks, want)
		}
		s.EndOp(1)
		s.Drain(0)
	})
}

// TestDrainPressureOverridesBackoff: the serving layer's soft-watermark
// signal must collapse the futile-scan backoff to the base cadence — under
// pressure a pinned thread keeps probing every EmptyFreq retirements (so
// reclaim happens promptly once the pin clears), instead of waiting out a
// backed-off watermark.
func TestDrainPressureOverridesBackoff(t *testing.T) {
	r := newRig(t, "tagibr", 2) // EmptyFreq 4
	s := r.scheme
	s.Reservations().At(1).Set(1, 1<<60)

	const blocks = 400
	retireN := func(n int) {
		for i := 0; i < n; i++ {
			h := s.Alloc(0)
			if h.IsNil() {
				t.Fatal("pool exhausted")
			}
			s.Retire(0, h)
		}
	}
	retireN(blocks)
	stats := func() ScanStats { return s.ScanStats() }
	backedOff := stats().Scans
	if backedOff > uint64(blocks/8) {
		t.Fatalf("%d scans before pressure; backoff is broken", backedOff)
	}

	s.SetDrainPressure(true)
	retireN(blocks)
	underPressure := stats().Scans - backedOff
	// Every EmptyFreq retirements must now scan: 400/4 = 100 scans.
	if underPressure < uint64(blocks/4) {
		t.Fatalf("only %d scans under drain pressure over %d retires, want ~%d", underPressure, blocks, blocks/4)
	}

	s.SetDrainPressure(false)
	prev := stats().Scans
	retireN(blocks)
	relaxed := stats().Scans - prev
	if relaxed > uint64(blocks/8) {
		t.Fatalf("%d scans after pressure cleared; the backoff did not resume", relaxed)
	}

	s.Reservations().At(1).Clear()
	s.Clock().Advance()
	s.Drain(0)
	if got := s.Unreclaimed(0); got != 0 {
		t.Fatalf("%d blocks survive after the reservation cleared", got)
	}
}
