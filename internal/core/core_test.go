package core

import (
	"math"
	"sync"
	"testing"

	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// tnode is the node type used by core tests: a payload plus one link, like
// a list node.
type tnode struct {
	key  uint64
	next Ptr
}

// testRig couples a pool and a scheme with small cadence settings so tests
// can observe epoch advances and scans without thousands of operations.
type testRig struct {
	pool   *mem.Pool[tnode]
	scheme Scheme
}

func newRig(t *testing.T, name string, threads int) *testRig {
	t.Helper()
	pool := mem.New[tnode](mem.Options[tnode]{Threads: threads, MaxSlots: 1 << 16})
	s, err := New(name, pool, Options{Threads: threads, EpochFreq: 4, EmptyFreq: 4})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{pool: pool, scheme: s}
}

// reclaimers are the schemes that actually free memory (everything but the
// leaking baseline).
func reclaimers() []string {
	var out []string
	for _, n := range Names() {
		if n != "none" {
			out = append(out, n)
		}
	}
	return out
}

func TestRegistryNames(t *testing.T) {
	pool := mem.New[tnode](mem.Options[tnode]{Threads: 1})
	for _, n := range Names() {
		s, err := New(n, pool, Options{Threads: 1})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, s.Name())
		}
	}
	if _, err := New("bogus", pool, Options{Threads: 1}); err == nil {
		t.Fatal("unknown scheme did not error")
	}
}

// TestNamesSchemesSameSet pins the PR-6 fix: Names() (paper-plot order) and
// Schemes() (sorted) must derive from the one registry table, so they hold
// the identical set and registering a scheme can't silently miss one list.
func TestNamesSchemesSameSet(t *testing.T) {
	names, schemes := Names(), Schemes()
	if len(names) != len(schemes) {
		t.Fatalf("Names() has %d entries, Schemes() has %d", len(names), len(schemes))
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		if set[n] {
			t.Fatalf("Names() lists %q twice", n)
		}
		set[n] = true
	}
	for _, n := range schemes {
		if !set[n] {
			t.Fatalf("Schemes() has %q which Names() lacks", n)
		}
	}
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1] >= schemes[i] {
			t.Fatalf("Schemes() not sorted at %q >= %q", schemes[i-1], schemes[i])
		}
	}
	for _, want := range []string{"hyaline", "debra"} {
		if !set[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func TestRegistryAliases(t *testing.T) {
	pool := mem.New[tnode](mem.Options[tnode]{Threads: 1})
	for alias, canonical := range map[string]string{
		"nomm": "none", "epoch": "ebr", "2ge": "2geibr",
	} {
		s, err := New(alias, pool, Options{Threads: 1})
		if err != nil || s.Name() != canonical {
			t.Fatalf("alias %q: scheme %v err %v", alias, s, err)
		}
	}
}

func TestRobustFlagsMatchFig7(t *testing.T) {
	// Fig. 7: EBR is the only non-robust scheme in the paper's comparison.
	// The post-paper engines are honest about needing external help: plain
	// Hyaline pins batches behind a stalled slot, and DEBRA without the
	// serving layer's neutralization watchdog is EBR.
	want := map[string]bool{
		"none": true, "ebr": false, "hp": true, "he": true, "poibr": true,
		"tagibr": true, "tagibr-faa": true, "tagibr-wcas": true,
		"tagibr-tpa": true, "2geibr": true,
		"hyaline": false, "debra": false,
	}
	for _, n := range Names() {
		if _, ok := want[n]; !ok {
			t.Fatalf("scheme %q missing from the Fig. 7 want-map", n)
		}
		r := newRig(t, n, 1)
		if r.scheme.Robust() != want[n] {
			t.Errorf("%s.Robust() = %v, want %v", n, r.scheme.Robust(), want[n])
		}
	}
}

// TestProtectedBlockSurvivesReclaim is the central safety choreography:
// a reader protects a block; a second thread detaches, retires and scans;
// the block must survive until the reader finishes, and be reclaimed after.
func TestProtectedBlockSurvivesReclaim(t *testing.T) {
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2)
			s, pool := r.scheme, r.pool

			var root Ptr
			h := s.Alloc(0)
			pool.Get(h).key = 42
			s.Write(0, &root, h)

			// Reader (tid 0) protects the block.
			s.StartOp(0)
			got := s.ReadRoot(0, 0, &root)
			if !got.SameAddr(h) {
				t.Fatalf("ReadRoot = %v, want %v", got, h)
			}
			if pool.Get(got).key != 42 {
				t.Fatal("payload wrong through protected read")
			}

			// Writer (tid 1) detaches and retires.
			s.StartOp(1)
			s.Write(1, &root, mem.Nil)
			s.Retire(1, got)
			s.EndOp(1)

			s.Drain(1)
			if pool.State(h) == mem.StateFree {
				t.Fatalf("%s freed a block while a reader held it", name)
			}

			// Reader finishes; now the block must be reclaimable.
			s.EndOp(0)
			s.Drain(1)
			if pool.State(h) != mem.StateFree {
				t.Fatalf("%s failed to free an unprotected retired block", name)
			}
		})
	}
}

// TestNoMMNeverFrees pins the leaking baseline's defining behaviour.
func TestNoMMNeverFrees(t *testing.T) {
	r := newRig(t, "none", 1)
	s, pool := r.scheme, r.pool
	h := s.Alloc(0)
	s.Retire(0, h)
	s.Drain(0)
	if pool.State(h) != mem.StateRetired {
		t.Fatalf("state = %v, want retired forever", pool.State(h))
	}
	if s.Unreclaimed(0) != 1 {
		t.Fatalf("Unreclaimed = %d, want 1", s.Unreclaimed(0))
	}
}

func TestAllocAdvancesEpochEveryFreq(t *testing.T) {
	for _, name := range []string{"he", "poibr", "tagibr", "tagibr-faa", "tagibr-wcas", "tagibr-tpa", "2geibr"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1) // EpochFreq = 4
			s := r.scheme
			e0 := s.Clock().Now()
			for i := 0; i < 8; i++ {
				if s.Alloc(0).IsNil() {
					t.Fatal("alloc failed")
				}
			}
			if got := s.Clock().Now(); got != e0+2 {
				t.Fatalf("epoch advanced %d times in 8 allocs with freq 4, want 2", got-e0)
			}
		})
	}
}

func TestEBRAdvancesEpochOnRetire(t *testing.T) {
	r := newRig(t, "ebr", 1) // EpochFreq = 4 retirements
	s := r.scheme
	e0 := s.Clock().Now()
	for i := 0; i < 8; i++ {
		s.Retire(0, s.Alloc(0))
	}
	if got := s.Clock().Now(); got != e0+2 {
		t.Fatalf("epoch advanced %d times in 8 retires with freq 4, want 2", got-e0)
	}
}

// TestBirthEpochStamped checks that every scheme declared to read birth
// epochs (fig1Defaults' stamps column) stamps each allocation with the
// clock reading at that allocation, on fresh slots and on the slot reused
// by allocEpochs' drain-and-retry path; the interval test birth ≤ upper ∧
// retire ≥ lower (paper §3, Figs. 4–5) is meaningless against a stale or
// unstamped birth. The schemes declared not to read births must leave
// fresh blocks unstamped.
func TestBirthEpochStamped(t *testing.T) {
	for _, name := range Names() {
		want, ok := fig1Defaults[name]
		if !ok {
			t.Fatalf("scheme %q missing from the Fig. 1 defaults table", name)
		}
		t.Run(name, func(t *testing.T) {
			// Four slots, an epoch per allocation, and no scan until the
			// pool runs dry: the fifth Alloc must drain and retry.
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 4})
			s, err := New(name, pool, Options{Threads: 1, EpochFreq: 1, EmptyFreq: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, h mem.Handle) {
				t.Helper()
				if h.IsNil() {
					t.Fatalf("%s: Alloc returned nil", what)
				}
				birth, now := pool.Birth(h), s.Clock().Now()
				if want.stamps && birth != now {
					t.Errorf("%s: birth = %d, want the allocation's epoch %d", what, birth, now)
				}
				if !want.stamps && birth != 0 {
					t.Errorf("%s: birth = %d, want 0 from a scheme that reads no births", what, birth)
				}
			}
			var live []mem.Handle
			for i := 0; i < 4; i++ {
				h := s.Alloc(0)
				check("fresh slot", h)
				live = append(live, h)
			}
			if !want.stamps {
				return
			}
			for _, h := range live {
				s.Retire(0, h)
			}
			check("slot reused after a drain", s.Alloc(0))
			if pool.Stats().Frees == 0 {
				t.Fatal("the fifth Alloc freed nothing: the drain-and-retry path went unchecked")
			}
		})
	}
}

// TestEmptyFreqCadence verifies retirements trigger scans automatically:
// with no reservations, everything should be reclaimed by the EmptyFreq'th
// retire without an explicit Drain.
func TestEmptyFreqCadence(t *testing.T) {
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1) // EmptyFreq = 4
			s := r.scheme
			for i := 0; i < 4; i++ {
				s.Retire(0, s.Alloc(0))
			}
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("Unreclaimed = %d after %d retirements, want 0", got, 4)
			}
		})
	}
}

func TestDrainAllAndTotalUnreclaimed(t *testing.T) {
	r := newRig(t, "ebr", 3)
	s := r.scheme
	for tid := 0; tid < 3; tid++ {
		s.Retire(tid, s.Alloc(tid))
	}
	if got := TotalUnreclaimed(s, 3); got != 3 {
		t.Fatalf("TotalUnreclaimed = %d, want 3", got)
	}
	DrainAll(s, 3)
	if got := TotalUnreclaimed(s, 3); got != 0 {
		t.Fatalf("TotalUnreclaimed after DrainAll = %d, want 0", got)
	}
}

// TestIntervalReclamationPrecision builds blocks with known lifetimes and a
// reservation with a known interval, and checks that exactly the
// non-intersecting blocks are freed — Fig. 5's empty() truth table.
func TestIntervalReclamationPrecision(t *testing.T) {
	for _, name := range []string{"poibr", "tagibr", "tagibr-faa", "tagibr-wcas", "tagibr-tpa", "2geibr"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2)
			s := r.scheme
			clk := s.Clock()

			// Block A: lifetime [1, 2]. Block B: lifetime [4, 5].
			a := s.Alloc(0) // birth 1
			clk.Advance()   // epoch 2
			s.Retire(0, a)  // retire 2
			clk.Advance()   // epoch 3
			clk.Advance()   // epoch 4
			b := s.Alloc(0) // birth 4
			clk.Advance()   // epoch 5
			s.Retire(0, b)  // retire 5

			// Reservation [3,3]: intersects neither lifetime, so both must go.
			s.Reservations().At(1).Set(3, 3)
			s.Drain(0)
			if r.pool.State(a) != mem.StateFree || r.pool.State(b) != mem.StateFree {
				t.Fatal("reservation [3,3] should protect neither [1,2] nor [4,5]")
			}
		})
	}
}

// TestIntervalConflictTable drives the scan predicate directly through
// scheme state with hand-placed reservations.
func TestIntervalConflictTable(t *testing.T) {
	for _, name := range []string{"tagibr", "2geibr", "poibr"} {
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				lo, hi uint64 // reservation
				free   bool   // block [3,5] freeable?
			}{
				{1, 2, true},
				{1, 3, false},
				{4, 4, false},
				{5, 9, false},
				{6, 9, true},
				{epoch.None, epoch.None, true},
			}
			for _, c := range cases {
				r := newRig(t, name, 2)
				s := r.scheme
				clk := s.Clock()
				for clk.Now() < 3 {
					clk.Advance()
				}
				h := s.Alloc(0) // birth 3
				for clk.Now() < 5 {
					clk.Advance()
				}
				s.Retire(0, h) // retire 5
				if c.lo != epoch.None {
					s.Reservations().At(1).Set(c.lo, c.hi)
				}
				s.Drain(0)
				gotFree := r.pool.State(h) == mem.StateFree
				if gotFree != c.free {
					t.Errorf("res [%d,%d] vs block [3,5]: freed=%v want %v",
						c.lo, c.hi, gotFree, c.free)
				}
			}
		})
	}
}

// TestEBRReclaimBoundary pins Fig. 2's strict inequality: blocks retired in
// the reserved epoch are protected; blocks retired strictly before are not.
func TestEBRReclaimBoundary(t *testing.T) {
	r := newRig(t, "ebr", 2)
	s := r.scheme
	clk := s.Clock()

	early := s.Alloc(0)
	s.Retire(0, early) // retired at epoch 1
	clk.Advance()      // epoch 2
	late := s.Alloc(0)
	s.Retire(0, late) // retired at epoch 2

	s.Reservations().At(1).Set(2, 2) // reader started in epoch 2
	s.Drain(0)
	if r.pool.State(early) != mem.StateFree {
		t.Fatal("block retired before reserved epoch not freed")
	}
	if r.pool.State(late) == mem.StateFree {
		t.Fatal("block retired in reserved epoch was freed")
	}
}

func TestHPUnreserveReleasesProtection(t *testing.T) {
	for _, name := range []string{"hp", "he"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2)
			s := r.scheme
			var root Ptr
			h := s.Alloc(0)
			s.Write(0, &root, h)

			s.StartOp(0)
			s.Read(0, 3, &root) // protect via slot 3

			s.Write(1, &root, mem.Nil)
			s.Retire(1, h)
			s.Drain(1)
			if r.pool.State(h) == mem.StateFree {
				t.Fatal("freed while slot 3 protected it")
			}
			s.Unreserve(0, 3)
			s.Drain(1)
			if r.pool.State(h) != mem.StateFree {
				t.Fatal("not freed after Unreserve")
			}
			s.EndOp(0)
		})
	}
}

func TestHPEndOpClearsAllSlots(t *testing.T) {
	r := newRig(t, "hp", 2)
	s := r.scheme
	var p0, p1 Ptr
	a, b := s.Alloc(0), s.Alloc(0)
	s.Write(0, &p0, a)
	s.Write(0, &p1, b)

	s.StartOp(0)
	s.Read(0, 0, &p0)
	s.Read(0, 1, &p1)
	s.EndOp(0)

	s.Write(1, &p0, mem.Nil)
	s.Write(1, &p1, mem.Nil)
	s.Retire(1, a)
	s.Retire(1, b)
	s.Drain(1)
	if r.pool.State(a) != mem.StateFree || r.pool.State(b) != mem.StateFree {
		t.Fatal("EndOp did not clear hazard slots")
	}
}

func TestReadPreservesMarkBits(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			var p Ptr
			h := s.Alloc(0)
			s.Write(0, &p, h.WithMark0())
			s.StartOp(0)
			got := s.Read(0, 0, &p)
			if !got.Mark0() || !got.SameAddr(h) {
				t.Fatalf("Read = %v, want marked %v", got, h)
			}
			s.EndOp(0)
		})
	}
}

func TestCASSemantics(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			var p Ptr
			a, b := s.Alloc(0), s.Alloc(0)
			s.StartOp(0)
			s.Write(0, &p, a)
			cur := s.Read(0, 0, &p)

			// Failing CAS: wrong expected value.
			if s.CompareAndSwap(0, &p, b, a) {
				t.Fatal("CAS succeeded with wrong expected value")
			}
			// Succeeding CAS with the value just read.
			if !s.CompareAndSwap(0, &p, cur, b) {
				t.Fatal("CAS failed with correct expected value")
			}
			if got := s.Read(0, 0, &p); !got.SameAddr(b) {
				t.Fatalf("after CAS, read %v want %v", got, b)
			}
			// Mark transition: unmarked -> marked, as Harris does.
			cur = s.Read(0, 0, &p)
			if !s.CompareAndSwap(0, &p, cur, cur.WithMark0()) {
				t.Fatal("mark CAS failed")
			}
			if got := s.Read(0, 0, &p); !got.Mark0() {
				t.Fatal("mark lost")
			}
			s.EndOp(0)
		})
	}
}

func TestCASNilTransitions(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			var p Ptr
			h := s.Alloc(0)
			s.StartOp(0)
			if !s.CompareAndSwap(0, &p, mem.Nil, h) {
				t.Fatal("CAS from nil failed")
			}
			cur := s.Read(0, 0, &p)
			if !s.CompareAndSwap(0, &p, cur, mem.Nil) {
				t.Fatal("CAS to nil failed")
			}
			if got := s.Read(0, 0, &p); !got.IsNil() {
				t.Fatalf("expected nil, got %v", got)
			}
			s.EndOp(0)
		})
	}
}

func TestWCASPacksPreciseBirth(t *testing.T) {
	r := newRig(t, "tagibr-wcas", 1)
	s := r.scheme
	var p Ptr
	h := s.Alloc(0)
	birth := r.pool.Birth(h)
	s.Write(0, &p, h)
	if w := p.Raw(); w.Epoch() != birth {
		t.Fatalf("stored word epoch = %d, want birth %d", w.Epoch(), birth)
	}
	s.StartOp(0)
	got := s.Read(0, 0, &p)
	if got.Epoch() != birth || !got.SameAddr(h) {
		t.Fatalf("read %v, want addr %v epoch %d", got, h, birth)
	}
	s.EndOp(0)
}

func TestTagIBRBornBeforeMonotone(t *testing.T) {
	for _, name := range []string{"tagibr", "tagibr-faa"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			clk := s.Clock()
			var p Ptr
			newer := s.Alloc(0) // birth 1
			clk.Advance()
			clk.Advance()
			newest := s.Alloc(0) // birth 3
			s.Write(0, &p, newest)
			if p.born.Load() != 3 {
				t.Fatalf("born = %d, want 3", p.born.Load())
			}
			// Writing an *older* block must not lower born_before.
			s.Write(0, &p, newer)
			if p.born.Load() != 3 {
				t.Fatalf("born dropped to %d; must be monotone", p.born.Load())
			}
		})
	}
}

func TestTagIBRReadRaisesUpper(t *testing.T) {
	for _, name := range []string{"tagibr", "tagibr-faa", "tagibr-wcas", "tagibr-tpa"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			clk := s.Clock()
			var p Ptr
			s.StartOp(0) // reservation [1,1]
			for clk.Now() < 5 {
				clk.Advance()
			}
			h := s.Alloc(0) // birth 5
			s.Write(0, &p, h)
			s.Read(0, 0, &p)
			if up := s.Reservations().At(0).Upper(); up < 5 {
				t.Fatalf("upper = %d after reading a birth-5 block, want >= 5", up)
			}
			if lo := s.Reservations().At(0).Lower(); lo != 1 {
				t.Fatalf("lower = %d, want 1 (pinned at start)", lo)
			}
			s.EndOp(0)
		})
	}
}

func Test2GEReadRaisesUpperToCurrentEpoch(t *testing.T) {
	r := newRig(t, "2geibr", 1)
	s := r.scheme
	clk := s.Clock()
	var p Ptr
	h := s.Alloc(0)
	s.Write(0, &p, h)
	s.StartOp(0)
	for clk.Now() < 7 {
		clk.Advance()
	}
	s.Read(0, 0, &p)
	if up := s.Reservations().At(0).Upper(); up != 7 {
		t.Fatalf("upper = %d, want current epoch 7", up)
	}
	s.EndOp(0)
}

// fig1Default records, per registered scheme, which of Fig. 1's defaults
// it takes from base. Go embedding does not dispatch, so an override that
// goes missing — or a base method that silently calls base's own StartOp
// under a scheme that overrides it — compiles cleanly; this table is the
// check.
type fig1Default struct {
	// reserves: StartOp publishes a reservation-table entry (base's epoch
	// reservation, or DEBRA's override of it). HP, HE, NoMM and Hyaline
	// override StartOp with their own protection and leave the table idle.
	reserves bool
	// write is what Write and CompareAndSwap store: the bare handle (base's
	// uninstrumented default), or TagIBR's protected_write — born_before
	// raised alongside (tagibr, tagibr-faa) or the birth epoch packed into
	// the word (tagibr-wcas).
	write writeForm
	// stamps: the scheme reads birth epochs, so Alloc must stamp them
	// (allocEpochs). EBR, DEBRA, Hyaline, HP and NoMM allocate plain.
	stamps bool
}

type writeForm int

const (
	writeBare writeForm = iota
	writeBorn
	writePacked
)

var fig1Defaults = map[string]fig1Default{
	"none":        {false, writeBare, false},
	"ebr":         {true, writeBare, false},
	"hp":          {false, writeBare, false},
	"he":          {false, writeBare, true},
	"poibr":       {true, writeBare, true},
	"tagibr":      {true, writeBorn, true},
	"tagibr-faa":  {true, writeBorn, true},
	"tagibr-wcas": {true, writePacked, true},
	"tagibr-tpa":  {true, writeBare, true},
	"2geibr":      {true, writeBare, true},
	"hyaline":     {false, writeBare, false},
	"debra":       {true, writeBare, false},
}

// reserving lists the schemes whose StartOp publishes a table entry.
func reserving() []string {
	var out []string
	for _, n := range Names() {
		if fig1Defaults[n].reserves {
			out = append(out, n)
		}
	}
	return out
}

// TestFig1DefaultsPerScheme pins which schemes override which Fig. 1
// defaults: whether StartOp publishes a reservation, and what Write and
// CompareAndSwap store. TestBirthEpochStamped checks the stamps column.
func TestFig1DefaultsPerScheme(t *testing.T) {
	for _, name := range Names() {
		want, ok := fig1Defaults[name]
		if !ok {
			t.Fatalf("scheme %q missing from the Fig. 1 defaults table", name)
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			s.StartOp(0)
			if got := s.Reservations().At(0).Lower() != epoch.None; got != want.reserves {
				t.Errorf("StartOp published a reservation = %v, want %v", got, want.reserves)
			}
			s.EndOp(0)

			s.Clock().Advance()
			s.Clock().Advance()
			h := s.Alloc(0)
			birth := r.pool.Birth(h)
			var wp, cp Ptr
			s.Write(0, &wp, h)
			if !s.CompareAndSwap(0, &cp, mem.Nil, h) {
				t.Fatal("CAS from nil failed")
			}
			for op, p := range map[string]*Ptr{"Write": &wp, "CompareAndSwap": &cp} {
				if raised := p.born.Load() != 0; raised != (want.write == writeBorn) {
					t.Errorf("%s raised born_before = %v, want %v", op, raised, want.write == writeBorn)
				}
				switch w := p.Raw(); want.write {
				case writePacked:
					if !w.SameAddr(h) || w.Epoch() != birth || birth == 0 {
						t.Errorf("%s stored %v, want %v packed with birth %d", op, w, h, birth)
					}
				default:
					if w != h {
						t.Errorf("%s stored %v, want the bare handle %v", op, w, h)
					}
				}
			}
		})
	}
}

// TestDEBRARestartOpConsumesNeutralization: DEBRA must override RestartOp
// as well as StartOp — base.RestartOp calls base.StartOp and would publish
// a fresh epoch without consuming the pending neutralization.
func TestDEBRARestartOpConsumesNeutralization(t *testing.T) {
	s := newRig(t, "debra", 1).scheme.(*DEBRA)
	s.StartOp(0)
	s.ClearReservation(0)
	s.RestartOp(0)
	if s.Neutralized(0) {
		t.Fatal("RestartOp left the neutralization pending")
	}
	if sig, obs := s.NeutralizeStats(); sig != 1 || obs != 1 {
		t.Fatalf("stats = (%d signaled, %d observed), want (1, 1)", sig, obs)
	}
	if lo := s.Reservations().At(0).Lower(); lo == epoch.None {
		t.Fatal("RestartOp published no reservation")
	}
	s.EndOp(0)
}

func TestRestartOpRenewsReservation(t *testing.T) {
	for _, name := range reserving() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			clk := s.Clock()
			s.StartOp(0)
			lo0 := s.Reservations().At(0).Lower()
			for clk.Now() < lo0+5 {
				clk.Advance()
			}
			s.RestartOp(0)
			if lo := s.Reservations().At(0).Lower(); lo != lo0+5 {
				t.Fatalf("lower = %d after restart, want %d", lo, lo0+5)
			}
			s.EndOp(0)
		})
	}
}

func TestEndOpClearsReservation(t *testing.T) {
	for _, name := range reserving() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 1)
			s := r.scheme
			s.StartOp(0)
			s.EndOp(0)
			res := s.Reservations().At(0)
			if res.Lower() != epoch.None || res.Upper() != epoch.None {
				t.Fatalf("reservation [%d,%d] not cleared", res.Lower(), res.Upper())
			}
		})
	}
}

// TestRobustnessBound is Theorem 2 in executable form: with one stalled
// reader, a robust scheme's unreclaimed count stays bounded while EBR's
// grows with the churn.
func TestRobustnessBound(t *testing.T) {
	const churn = 4000
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2) // EpochFreq 4, EmptyFreq 4
			s := r.scheme

			// tid 0 parks inside an operation holding a protected root.
			var root Ptr
			h := s.Alloc(1)
			s.Write(1, &root, h)
			s.StartOp(0)
			s.ReadRoot(0, 0, &root)
			// (no EndOp: stalled)

			// tid 1 churns: every allocated block is immediately retired.
			for i := 0; i < churn; i++ {
				g := s.Alloc(1)
				if g.IsNil() {
					t.Fatal("pool exhausted: reclamation wedged")
				}
				s.Retire(1, g)
			}
			s.Drain(1)
			got := s.Unreclaimed(1)
			if s.Robust() {
				// The stalled interval can cover only blocks born while its
				// upper endpoint was still current; everything born after
				// must drain. Allow generous slack.
				if got > 200 {
					t.Fatalf("%s: %d unreclaimed with a stalled thread; expected bounded", name, got)
				}
			} else if got < churn*9/10 {
				t.Fatalf("EBR: %d unreclaimed, expected ~%d pinned by the stalled thread", got, churn)
			}
			s.EndOp(0)
		})
	}
}

// TestConcurrentChurnAllSchemes hammers alloc/write/read/retire from many
// goroutines over a shared array of pointer cells; the pool's state machine
// (double-free/double-retire panics) and the poison pattern catch unsound
// reclamation.
func TestConcurrentChurnAllSchemes(t *testing.T) {
	const (
		threads = 4
		iters   = 8000
		cells   = 64
	)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{
				Threads:  threads,
				MaxSlots: 1 << 18,
				Poison:   func(n *tnode) { n.key = math.MaxUint64 },
			})
			s, err := New(name, pool, Options{Threads: threads, EpochFreq: 8, EmptyFreq: 8})
			if err != nil {
				t.Fatal(err)
			}
			var cellsArr [cells]Ptr
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*0x9E3779B97F4A7C15 + 1
					for i := 0; i < iters; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						c := &cellsArr[rng%cells]
						s.StartOp(tid)
						switch rng % 3 {
						case 0: // replace: swap a new block in, retire the old
							nh := s.Alloc(tid)
							if nh.IsNil() {
								s.EndOp(tid)
								continue
							}
							pool.Get(nh).key = rng
							old := s.Read(tid, 0, c)
							if s.CompareAndSwap(tid, c, old, nh) {
								if !old.IsNil() {
									s.Retire(tid, old)
								}
							} else {
								pool.Free(tid, nh) // never published
							}
						case 1: // remove: swap nil in, retire the old
							old := s.Read(tid, 0, c)
							if !old.IsNil() && s.CompareAndSwap(tid, c, old, mem.Nil) {
								s.Retire(tid, old)
							}
						default: // read and check for poison
							h := s.Read(tid, 0, c)
							if !h.IsNil() {
								if pool.Get(h).key == math.MaxUint64 {
									t.Errorf("%s: read a poisoned (freed) block", name)
									s.EndOp(tid)
									return
								}
							}
						}
						s.EndOp(tid)
					}
				}(tid)
			}
			wg.Wait()
			if name == "none" {
				return
			}
			// Detach everything, drain: all retired blocks must free.
			for i := range cellsArr {
				if h := cellsArr[i].Raw(); !h.IsNil() {
					s.Write(0, &cellsArr[i], mem.Nil)
					s.Retire(0, h)
				}
			}
			DrainAll(s, threads)
			if got := TotalUnreclaimed(s, threads); got != 0 {
				t.Fatalf("%s: %d blocks unreclaimed after quiescent drain", name, got)
			}
			st := pool.Stats()
			if st.Live() != 0 {
				t.Fatalf("%s: %d slots leaked", name, st.Live())
			}
		})
	}
}

// TestAllocRecoversViaDrain exhausts a tiny pool with retired blocks and
// checks Alloc reclaims and succeeds rather than failing.
func TestAllocRecoversViaDrain(t *testing.T) {
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 64})
			s, _ := New(name, pool, Options{Threads: 1, EpochFreq: 1024, EmptyFreq: 1024})
			for i := 0; i < 64; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatalf("alloc %d failed before exhaustion", i)
				}
				s.Retire(0, h)
			}
			// Pool is now fully retired; EmptyFreq hasn't triggered.
			if h := s.Alloc(0); h.IsNil() {
				t.Fatal("Alloc did not recover by draining its own garbage")
			}
		})
	}
}

func TestRetireNilPanics(t *testing.T) {
	r := newRig(t, "ebr", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("retire of nil did not panic")
		}
	}()
	r.scheme.Retire(0, mem.Nil)
}

func TestPtrRawRoundTrip(t *testing.T) {
	var p Ptr
	if !p.Raw().IsNil() {
		t.Fatal("zero Ptr not nil")
	}
	h := mem.FromSlot(5).WithMark1()
	p.setRaw(h)
	if p.Raw() != h {
		t.Fatal("Raw round trip failed")
	}
}
