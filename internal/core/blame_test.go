package core

import (
	"testing"

	"ibr/internal/mem"
	"ibr/internal/obs"
)

// TestPinnedBlameNamesStaller injects the paper's stalled-thread scenario
// and checks the blame attribution names the right culprit: blocks born
// before a parked reservation and retired after it conflict with exactly
// that reservation, so every kept block must be charged to the staller's
// tid via the conflict-witness search. Under EBR a second, younger reader
// is active too: its open-ended reservation also covers every kept block,
// and the witness must still be the oldest reservation, the staller's.
func TestPinnedBlameNamesStaller(t *testing.T) {
	const (
		threads = 3
		staller = 2
		younger = 1
		blocks  = 64
	)
	for _, scheme := range []string{"tagibr", "ebr"} {
		t.Run(scheme, func(t *testing.T) {
			o := obs.NewSchemeObs(obs.SchemeObsConfig{Threads: threads})
			pool := mem.New[tnode](mem.Options[tnode]{Threads: threads, MaxSlots: 1 << 12})
			s, err := New(scheme, pool, Options{Threads: threads, EpochFreq: 4, EmptyFreq: 4, Obs: o})
			if err != nil {
				t.Fatal(err)
			}

			// Order matters: the blocks must be BORN before the staller's
			// reservation exists (birth ≤ its lower endpoint) and retired
			// after, otherwise they do not conflict with it and a correct
			// scan frees them unblamed.
			handles := make([]mem.Handle, 0, blocks)
			for i := 0; i < blocks; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatal("pool exhausted")
				}
				handles = append(handles, h)
			}
			s.StartOp(staller) // parks a reservation at the current epoch
			if scheme == "ebr" {
				s.Clock().Advance()
				s.StartOp(younger)
			}
			for _, h := range handles {
				s.Retire(0, h)
			}
			s.Drain(0)

			if got := s.Unreclaimed(0); got == 0 {
				t.Fatalf("staller reservation pinned nothing; the scenario is broken")
			}
			top := o.PinnedBlame()
			if len(top) == 0 {
				t.Fatal("no blame recorded while memory is pinned")
			}
			if top[0].Tid != staller {
				t.Fatalf("top pinner = tid %d (%d blocks), want the staller tid %d; full table %+v",
					top[0].Tid, top[0].Blocks, staller, top)
			}
			if top[0].Blocks == 0 {
				t.Fatalf("staller blamed for zero blocks: %+v", top)
			}
			if scheme == "ebr" {
				if len(top) != 1 || top[0].Blocks != uint64(s.Unreclaimed(0)) {
					t.Fatalf("%d blocks kept, want every one charged to the staller tid %d; full table %+v",
						s.Unreclaimed(0), staller, top)
				}
				s.EndOp(younger)
			}

			// Culprit leaves: the next scan finds no conflicts, frees, and
			// the blame table empties with it.
			s.EndOp(staller)
			s.Drain(0)
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("%d blocks survive after the staller left", got)
			}
			if left := o.PinnedBlame(); len(left) != 0 {
				t.Fatalf("stale blame after reclamation: %+v", left)
			}
		})
	}
}
