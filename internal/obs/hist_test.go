package obs

import (
	"sync"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	h.Record(0) // bucket 0
	h.Record(1) // bucket 0
	h.Record(2) // bucket 1
	h.Record(3) // bucket 1
	h.Record(1024)
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 1030 {
		t.Fatalf("Sum = %d, want 1030", s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 2 || s.Buckets[10] != 1 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets[:12])
	}
	if got := s.MaxBucket(); got != 10 {
		t.Fatalf("MaxBucket = %d, want 10", got)
	}
	// Boundaries: bucket i holds exactly 2^i <= v < 2^(i+1), with 0 in
	// bucket 0 and the top bucket reaching the end of the uint64 range.
	for _, c := range []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {255, 7}, {256, 8},
		{1000, 9}, {999_999, 19}, {1_000_000, 19}, {1 << 47, 47},
		{1<<62 + 5, 62}, {^uint64(0), 63},
	} {
		var h Hist
		h.Record(c.v)
		if s := h.Snapshot(); s.Buckets[c.bucket] != 1 || s.MaxBucket() != c.bucket {
			t.Errorf("Record(%d) landed in bucket %d, want %d", c.v, s.MaxBucket(), c.bucket)
		}
	}
}

// TestHistQuantileMonotone checks that the estimate is monotone in q and,
// for populations whose quantile ranks fall at known points of a bucket,
// that it interpolates linearly inside [2^i, 2^(i+1)) — bucket 0 spans
// [0, 2) — with out-of-range q clamped to [0, 1].
func TestHistQuantileMonotone(t *testing.T) {
	type want struct{ q, v float64 }
	for _, tc := range []struct {
		name  string
		fill  func(*Hist)
		exact []want
	}{
		// Ranks 1..255 fill buckets 0..7, so rank 500 is 245 of the 256
		// values in [256, 512).
		{"1..1000", func(h *Hist) {
			for i := uint64(1); i <= 1000; i++ {
				h.Record(i)
			}
		}, []want{{0.5, 501}}},
		// Four samples inside [1024, 2048): q=0 at the floor, q=1 at the
		// ceiling, quartiles evenly between.
		{"one bucket", func(h *Hist) {
			for i := 0; i < 4; i++ {
				h.Record(1500)
			}
		}, []want{{0, 1024}, {0.25, 1280}, {0.5, 1536}, {0.75, 1792}, {1, 2048}, {-1, 1024}, {2, 2048}}},
		// 90 samples in [64, 128) and 10 in [65536, 131072): rank 50 is
		// 50/90 into the low bucket, rank 95 halfway into the high one.
		{"two buckets", func(h *Hist) {
			for i := 0; i < 90; i++ {
				h.Record(100)
			}
			for i := 0; i < 10; i++ {
				h.Record(100_000)
			}
		}, []want{{0.5, 64 + 64*50.0/90}, {0.95, 98304}, {1, 131072}}},
		// Bucket 0 starts at 0, not at a 1 ns floor.
		{"bucket 0", func(h *Hist) {
			h.Record(0)
			h.Record(1)
		}, []want{{0, 0}, {0.5, 1}, {1, 2}}},
	} {
		var h Hist
		tc.fill(&h)
		s := h.Snapshot()
		prev := -1.0
		for q := -0.5; q <= 1.5; q += 0.01 {
			v := s.Quantile(q)
			if v < prev {
				t.Errorf("%s: Quantile(%v) = %v < previous %v", tc.name, q, v, prev)
			}
			prev = v
		}
		for _, w := range tc.exact {
			if got := s.Quantile(w.q); got != w.v {
				t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, w.q, got, w.v)
			}
		}
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(w*per + i))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		_ = h.Snapshot() // concurrent reads must be race-free
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8*per {
		t.Fatalf("Count = %d, want %d", s.Count, 8*per)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Hist
	a.Record(1)
	a.Record(100)
	b.Record(100)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.Sum != 201 {
		t.Fatalf("merged count/sum = %d/%d, want 3/201", sa.Count, sa.Sum)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
	sa.Merge(empty)
	if sa.Count != 3 {
		t.Fatal("merging an empty snapshot changed the count")
	}
	// Merged quantiles equal those of the union population.
	var x, y, both Hist
	for i := 0; i < 50; i++ {
		x.Record(100)
		both.Record(100)
		y.Record(50_000)
		both.Record(50_000)
	}
	merged, union := x.Snapshot(), both.Snapshot()
	merged.Merge(y.Snapshot())
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := merged.Quantile(q), union.Quantile(q); got != want {
			t.Fatalf("Quantile(%v): merged %v, union %v", q, got, want)
		}
	}
}
