package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"ibr/internal/epoch"
	"ibr/internal/mem"
)

// TestConflictsMatchesBruteForce_Quick cross-checks the scan predicate used
// by every interval scheme against the obvious definition.
func TestConflictsMatchesBruteForce_Quick(t *testing.T) {
	f := func(los, his [5]uint16, b16, len16 uint16) bool {
		var ivs []interval
		for i := range los {
			lo, hi := uint64(los[i]), uint64(his[i])
			if lo > hi {
				lo, hi = hi, lo
			}
			ivs = append(ivs, interval{lo, hi, 0})
		}
		birth := uint64(b16)
		retire := birth + uint64(len16)
		want := false
		for _, iv := range ivs {
			// intersect([lo,hi],[birth,retire]) != empty
			lo, hi := iv.lo, iv.hi
			if max64(lo, birth) <= min64(hi, retire) {
				want = true
			}
		}
		return conflicts(ivs, birth, retire) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestSortedContains_Quick checks the HP scan's binary search against a
// linear scan.
func TestSortedContains_Quick(t *testing.T) {
	f := func(vals []uint64, probe uint64) bool {
		sorted := append([]uint64(nil), vals...)
		for i := 1; i < len(sorted); i++ { // insertion sort (small inputs)
			for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
				sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
			}
		}
		want := false
		for _, v := range sorted {
			if v == probe {
				want = true
			}
		}
		return sortedContains(sorted, probe) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestWCASPackIdempotent_Quick: re-packing a stored WCAS word must be the
// identity, otherwise CAS expected-value semantics break.
func TestWCASPackIdempotent_Quick(t *testing.T) {
	r := newRig(t, "tagibr-wcas", 1)
	s := r.scheme.(*TagIBR)
	clk := r.scheme.Clock()
	var handles []mem.Handle
	for i := 0; i < 50; i++ {
		handles = append(handles, s.Alloc(0))
		clk.Advance()
	}
	f := func(idx uint8, marks uint8) bool {
		h := handles[int(idx)%len(handles)].WithMarks(uint64(marks % 4))
		once := s.pack(h)
		return s.pack(once) == once && once.SameAddr(h) && once.Marks() == h.Marks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRaiseBornMonotoneUnderContention_Quick hammers raiseBorn from many
// goroutines; the tag must end at the maximum and never decrease.
func TestRaiseBornMonotoneUnderContention(t *testing.T) {
	for _, name := range []string{"tagibr", "tagibr-faa"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 8)
			s := r.scheme.(*TagIBR)
			var p Ptr
			const threads, per = 8, 2000
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 1; i <= per; i++ {
						s.raiseBorn(&p, uint64(i*threads+tid))
					}
				}(tid)
			}
			wg.Wait()
			got := p.born.Load()
			maxArg := uint64(per*threads + threads - 1)
			if got < maxArg {
				t.Fatalf("born = %d, want >= max argument %d (monotonicity violated)", got, maxArg)
			}
			if s.variant == TagCAS && got > maxArg {
				t.Fatalf("CAS variant overshot: born = %d > %d (only FAA may have slack)", got, maxArg)
			}
		})
	}
}

// TestFetchOrMarksPreservesPayload: the atomic OR must touch only mark bits.
func TestFetchOrMarksPreservesPayload_Quick(t *testing.T) {
	f := func(slot uint64, epoch32 uint32, m uint8) bool {
		h := mem.FromSlot(slot % (1 << 20)).WithEpoch(uint64(epoch32) % mem.MaxPackedEpoch)
		var p Ptr
		p.setRaw(h)
		old := p.FetchOrMarks(uint64(m)) // only bits 0..1 may take effect
		now := p.Raw()
		return old == h && now.SameAddr(h) && now.Epoch() == h.Epoch() &&
			now.Marks() == (h.Marks()|uint64(m%4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHEReadFastPathNoStore: when the era is unchanged, HE's read must not
// publish (the scheme's advantage over HP).
func TestHEReadFastPathNoStore(t *testing.T) {
	r := newRig(t, "he", 1)
	s := r.scheme.(*HE)
	var p Ptr
	h := s.Alloc(0)
	s.Write(0, &p, h)
	s.StartOp(0)
	s.Read(0, 0, &p) // publishes current era
	era := s.eras[0][0].v.Load()
	for i := 0; i < 10; i++ {
		s.Read(0, 0, &p)
	}
	if got := s.eras[0][0].v.Load(); got != era {
		t.Fatalf("era slot changed (%d -> %d) without an epoch advance", era, got)
	}
	// After an advance, the next read re-publishes.
	s.Clock().Advance()
	s.Read(0, 0, &p)
	if got := s.eras[0][0].v.Load(); got != era+1 {
		t.Fatalf("era slot = %d after advance, want %d", got, era+1)
	}
	s.EndOp(0)
}

// TestTransferSlotKeepsProtection: the NM-tree role handoff must leave the
// node continuously protected.
func TestTransferSlotKeepsProtection(t *testing.T) {
	for _, name := range []string{"hp", "he"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 2)
			s := r.scheme
			var p Ptr
			h := s.Alloc(0)
			s.Write(0, &p, h)
			s.StartOp(0)
			s.Read(0, 4, &p)        // protect in slot 4
			s.TransferSlot(0, 4, 1) // move protection to slot 1
			s.Read(0, 4, &p)        // reuse slot 4 for something else... same node here
			s.Unreserve(0, 4)       // drop slot 4
			// Slot 1 must still protect h.
			s.Write(1, &p, mem.Nil)
			s.Retire(1, h)
			s.Drain(1)
			if r.pool.State(h) == mem.StateFree {
				t.Fatal("freed while protected via transferred slot")
			}
			s.EndOp(0)
			s.Drain(1)
			if r.pool.State(h) != mem.StateFree {
				t.Fatal("not freed after EndOp")
			}
		})
	}
}

// TestTagTPAReadDetectsReuse: the type-preserving variant's double-check
// must reject a block recycled between the pointer load and the header
// read. We simulate the recycle deterministically.
func TestTagTPAReadDetectsReuse(t *testing.T) {
	r := newRig(t, "tagibr-tpa", 2)
	s := r.scheme
	clk := s.Clock()
	var p Ptr
	h := s.Alloc(0)
	s.Write(0, &p, h)
	s.StartOp(0)
	got := s.Read(0, 0, &p)
	if !got.SameAddr(h) {
		t.Fatalf("read %v want %v", got, h)
	}
	// Upper must cover the block's birth.
	if up := s.Reservations().At(0).Upper(); up < r.pool.Birth(h) {
		t.Fatalf("upper %d < birth %d", up, r.pool.Birth(h))
	}
	s.EndOp(0)
	// Recycle the slot with a newer birth; a fresh read through a *stale
	// pointer cell* must still return the new, covered value.
	s.Write(1, &p, mem.Nil)
	s.Retire(1, h)
	s.Drain(1)
	clk.Advance()
	h2 := s.Alloc(1) // same slot, newer birth
	if !h2.SameAddr(h) {
		t.Skip("allocator did not recycle the slot; cannot stage the race")
	}
	s.Write(1, &p, h2)
	s.StartOp(0)
	got = s.Read(0, 0, &p)
	if up := s.Reservations().At(0).Upper(); up < r.pool.Birth(h2) {
		t.Fatalf("upper %d does not cover recycled birth %d", up, r.pool.Birth(h2))
	}
	s.EndOp(0)
}

// TestNoMMLeakAccountingUnderChurn pins the leaking baseline's books.
func TestNoMMLeakAccountingUnderChurn(t *testing.T) {
	r := newRig(t, "none", 2)
	s := r.scheme
	for i := 0; i < 500; i++ {
		h := s.Alloc(i % 2)
		s.Retire(i%2, h)
	}
	if got := TotalUnreclaimed(s, 2); got != 500 {
		t.Fatalf("TotalUnreclaimed = %d, want 500", got)
	}
	st := r.pool.Stats()
	if st.Frees != 0 {
		t.Fatalf("NoMM freed %d blocks", st.Frees)
	}
}

// TestReservationIsolation: one thread's EndOp must not disturb another's
// reservation.
func TestReservationIsolation(t *testing.T) {
	for _, name := range []string{"ebr", "tagibr", "2geibr", "poibr"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 3)
			s := r.scheme
			s.StartOp(0)
			s.StartOp(1)
			lo0 := s.Reservations().At(0).Lower()
			s.EndOp(1)
			if s.Reservations().At(0).Lower() != lo0 {
				t.Fatal("EndOp(1) disturbed reservation of thread 0")
			}
			if s.Reservations().At(1).Lower() != epoch.None {
				t.Fatal("EndOp(1) did not clear its own reservation")
			}
			s.EndOp(0)
		})
	}
}

// TestUnreclaimedTracksListLength: the Fig. 9 metric must track the retire
// list exactly through retire/scan cycles.
func TestUnreclaimedTracksListLength(t *testing.T) {
	r := newRig(t, "tagibr", 2)
	s := r.scheme
	s.Reservations().At(1).Set(1, math.MaxUint64-1) // pin everything
	for i := 1; i <= 10; i++ {
		s.Retire(0, s.Alloc(0))
		if got := s.Unreclaimed(0); got != i {
			t.Fatalf("after %d retires: Unreclaimed = %d", i, got)
		}
	}
	s.Reservations().At(1).Clear()
	s.Drain(0)
	if got := s.Unreclaimed(0); got != 0 {
		t.Fatalf("after drain: Unreclaimed = %d", got)
	}
}

// TestInterleavedOpsManyThreads drives a randomized schedule of the raw
// scheme API (no data structure) across goroutines as a liveness smoke.
func TestInterleavedOpsManyThreads(t *testing.T) {
	for _, name := range reclaimers() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, name, 6)
			s := r.scheme
			var cells [8]Ptr
			var wg sync.WaitGroup
			for tid := 0; tid < 6; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						s.StartOp(tid)
						c := &cells[(i*7+tid)%8]
						h := s.Alloc(tid)
						if h.IsNil() {
							s.EndOp(tid)
							continue
						}
						old := s.Read(tid, 0, c)
						if s.CompareAndSwap(tid, c, old, h) {
							if !old.IsNil() {
								s.Retire(tid, old)
							}
						} else {
							r.pool.Free(tid, h)
						}
						s.EndOp(tid)
					}
				}(tid)
			}
			wg.Wait()
			for i := range cells {
				if h := cells[i].Raw(); !h.IsNil() {
					s.Retire(0, cells[i].Raw())
				}
			}
			DrainAll(s, 6)
			if got := TotalUnreclaimed(s, 6); got != 0 {
				t.Fatalf("%d unreclaimed after quiescent drain", got)
			}
		})
	}
}

// TestScanStats verifies the reclamation-work accounting.
func TestScanStats(t *testing.T) {
	r := newRig(t, "tagibr", 1) // EmptyFreq 4
	s := r.scheme.(*TagIBR)
	for i := 0; i < 8; i++ {
		s.Retire(0, s.Alloc(0))
	}
	st := s.ScanStats()
	if st.Scans != 2 {
		t.Fatalf("scans = %d, want 2 (8 retires, freq 4)", st.Scans)
	}
	if st.Freed == 0 || st.Freed > 8 {
		t.Fatalf("freed = %d", st.Freed)
	}
	if st.MeanListLen() <= 0 {
		t.Fatalf("mean list len = %v", st.MeanListLen())
	}
	var zero ScanStats
	if zero.MeanListLen() != 0 {
		t.Fatal("zero-scan mean should be 0")
	}
}
