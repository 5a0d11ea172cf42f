package core

import (
	"testing"

	"ibr/internal/mem"
)

// This file demonstrates, deterministically, the unsafe window in the
// paper's printed read protocols (Figs. 5 and 6) that DESIGN.md finding (i)
// describes — and shows that the publish-first order this library
// implements closes it. The "literal" protocols are re-enacted step by
// step with the scheme's own primitives, with the adversary (detach,
// retire, scan) interleaved at the vulnerable point.
//
// Scenario (2GEIBR flavor; TagIBR's is isomorphic):
//
//	reader:   StartOp at epoch e1       → interval [e1, e1]
//	writer:   allocates B at epoch e2 > e1, links it
//	reader:   loads p → B               (literal Fig. 6 step 1)
//	adversary: detaches B, retires B, scans:
//	           B.birth = e2 > reader's published upper e1 → NO conflict → FREED
//	reader:   raises upper to e2, "returns" B   ← dangling!
//
// With the publish-first loop, the reader publishes upper = e2 and then
// RE-READS p; the detach already overwrote p, so the reader gets the new
// value (nil) instead of the freed block.

// stage prepares the common choreography: a reader with a stale interval
// and a block born after its upper endpoint.
func stageFig6(t *testing.T) (r *testRig, s *TwoGE, p *Ptr, b mem.Handle) {
	t.Helper()
	rig := newRig(t, "2geibr", 2)
	s = rig.scheme.(*TwoGE)
	p = &Ptr{}

	s.StartOp(0) // reader reserves [e1, e1]
	e1 := s.Reservations().At(0).Upper()

	// Writer: advance the epoch, then create and link B (birth e2 > e1).
	s.Clock().Advance()
	b = s.Alloc(1)
	s.Write(1, p, b)
	if rig.pool.Birth(b) <= e1 {
		t.Fatalf("staging failed: birth %d <= e1 %d", rig.pool.Birth(b), e1)
	}
	return rig, s, p, b
}

// TestFig6LiteralOrderIsUnsafe replays the printed Fig. 6 read verbatim
// and shows the returned block is freed memory.
func TestFig6LiteralOrderIsUnsafe(t *testing.T) {
	rig, s, p, b := stageFig6(t)

	// -- literal Fig. 6 read, step 1: ret = *ptraddr
	ret := mem.Handle(p.bits.Load())
	if !ret.SameAddr(b) {
		t.Fatal("staging: reader did not see B")
	}

	// -- adversary runs BEFORE the reader publishes its raised upper:
	s.Write(1, p, mem.Nil) // detach
	s.Retire(1, b)
	s.Drain(1) // scan sees reader's stale [e1,e1]; B.birth=e2 > e1 → freed

	if rig.pool.State(b) != mem.StateFree {
		t.Fatal("adversary could not free B: the window is already closed?")
	}

	// -- literal Fig. 6 steps 2-3: raise upper to the current epoch,
	//    verify the epoch is unchanged, and "return" ret.
	e := s.Clock().Now()
	if up := s.Reservations().At(0).Upper(); e > up {
		s.Reservations().At(0).SetUpper(e)
	}
	if s.Clock().Now() == e {
		// The literal protocol accepts ret here. ret is dangling:
		if rig.pool.State(ret) != mem.StateFree {
			t.Fatal("expected ret to be freed")
		}
		// (In C++ this is the use-after-free; here the state check is the
		// proof. This is exactly DESIGN.md finding (i).)
	} else {
		t.Fatal("epoch moved; choreography needs adjusting")
	}
	s.EndOp(0)
}

// TestFig6PublishFirstOrderIsSafe runs the same adversary against this
// library's actual Read and shows the reader never obtains the freed block.
func TestFig6PublishFirstOrderIsSafe(t *testing.T) {
	rig, s, p, b := stageFig6(t)

	// Adversary acts first this time — worst case for the reader.
	s.Write(1, p, mem.Nil)
	s.Retire(1, b)
	s.Drain(1)
	if rig.pool.State(b) != mem.StateFree {
		t.Fatal("staging: B not freed")
	}

	// The real Read: it may raise the reservation, but it re-reads the
	// pointer afterwards and must come back with the CURRENT value (nil),
	// never the freed block.
	got := s.Read(0, 0, p)
	if !got.IsNil() {
		t.Fatalf("Read returned %v; want nil (B was detached and freed)", got)
	}
	s.EndOp(0)
}

// TestFig5LiteralOrderIsUnsafe is the TagIBR version: the born_before tag
// is read and the upper endpoint raised only AFTER the pointer load, so
// the same adversary wins the race.
func TestFig5LiteralOrderIsUnsafe(t *testing.T) {
	rig := newRig(t, "tagibr", 2)
	s := rig.scheme.(*TagIBR)
	p := &Ptr{}

	s.StartOp(0)
	e1 := s.Reservations().At(0).Upper()
	s.Clock().Advance()
	b := s.Alloc(1) // birth e2 > e1
	s.Write(1, p, b)

	// -- literal Fig. 5 read: ret = ptraddr->p (no publish yet)
	ret := mem.Handle(p.bits.Load())

	// -- adversary: detach, retire, scan against the stale [e1,e1].
	s.Write(1, p, mem.Nil)
	s.Retire(1, b)
	s.Drain(1)
	if rig.pool.State(b) != mem.StateFree {
		t.Fatalf("B not freed: birth %d vs reader upper %d", rig.pool.Birth(b), e1)
	}

	// -- literal Fig. 5 continues: upper = max(upper, born_before); the
	//    check "upper >= born_before" passes, and ret is returned. Dangling.
	bb := p.born.Load()
	if up := s.Reservations().At(0).Upper(); bb > up {
		s.Reservations().At(0).SetUpper(bb)
	}
	if rig.pool.State(ret) != mem.StateFree {
		t.Fatal("expected the literal protocol to hand back freed memory")
	}
	s.EndOp(0)

	// And the actual Read, same staging, re-run:
	s.StartOp(0)
	got := s.Read(0, 0, p)
	if !got.IsNil() {
		t.Fatalf("real Read returned %v; want nil", got)
	}
	s.EndOp(0)
}

// TestPublishFirstCoversBeforeReturn: whenever the real Read returns a
// non-nil handle, the reader's PUBLISHED interval must already cover the
// block's lifetime start — the property the literal order lacks.
func TestPublishFirstCoversBeforeReturn(t *testing.T) {
	for _, name := range []string{"tagibr", "tagibr-faa", "tagibr-wcas", "2geibr"} {
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, name, 2)
			s := rig.scheme
			p := &Ptr{}
			s.StartOp(0)
			for i := 0; i < 50; i++ {
				s.Clock().Advance()
				b := s.Alloc(1)
				s.Write(1, p, b)
				got := s.Read(0, 0, p)
				if got.IsNil() {
					t.Fatal("read lost the block")
				}
				if up := s.Reservations().At(0).Upper(); up < rig.pool.Birth(got.Addr()) {
					t.Fatalf("returned a block born at %d with published upper %d",
						rig.pool.Birth(got.Addr()), up)
				}
				s.Write(1, p, mem.Nil)
				s.Retire(1, got)
			}
			s.EndOp(0)
			s.Drain(1)
		})
	}
}
