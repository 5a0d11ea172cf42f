package harness

import (
	"testing"
	"time"

	"ibr/internal/obs"
)

// These tests pin Result.Latency's contract: each worker records an
// operation's duration in nanoseconds into its own obs.Hist (as Run does),
// and the per-worker snapshots merge into one HistSnapshot whose quantiles
// read back as time.Durations (as ibrbench prints them).

func recordLatency(h *obs.Hist, d time.Duration) { h.Record(uint64(d)) }

func latencyQuantile(s *obs.HistSnapshot, q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// TestLatencyBucketBoundaries pins the log2 bucketing: bucket i must hold
// exactly the durations with 2^i <= ns < 2^(i+1), with 0 ns in bucket 0
// and the last bucket reaching the end of the uint64 range.
func TestLatencyBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},                // bucket 0 spans [0, 2)
		{1, 0},                // 2^0
		{2, 1},                // 2^1
		{3, 1},                // still below 4
		{255, 7},              // top of [128, 256)
		{256, 8},              // bottom of [256, 512)
		{time.Microsecond, 9}, // 1000 ns → [512, 1024)
		{time.Millisecond - 1, 19},
		{time.Millisecond, 19}, // 1e6 ns → [2^19, 2^20)
		{1 << 47, 47},
		{1<<62 + 5, 62},
	}
	for _, c := range cases {
		var h obs.Hist
		recordLatency(&h, c.d)
		s := h.Snapshot()
		for i, n := range s.Buckets {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Fatalf("Record(%v): bucket %d = %d, want bucket %d", c.d, i, n, c.bucket)
			}
		}
	}
}

// TestLatencyQuantileInterpolation checks the linear interpolation inside
// one bucket: four samples in [1024, 2048) place q=0 at the bucket floor,
// q=1 at the ceiling, and intermediate quantiles linearly between.
func TestLatencyQuantileInterpolation(t *testing.T) {
	var h obs.Hist
	for i := 0; i < 4; i++ {
		recordLatency(&h, 1500*time.Nanosecond) // bucket 10: [1024, 2048)
	}
	s := h.Snapshot()
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1024},
		{0.25, 1280},
		{0.5, 1536},
		{0.75, 1792},
		{1, 2048},
		{-1, 1024}, // clamped
		{2, 2048},  // clamped
	}
	for _, c := range cases {
		if got := latencyQuantile(&s, c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestLatencyQuantileAcrossBuckets checks bucket selection with a skewed
// two-bucket population and that the estimate is monotone in q.
func TestLatencyQuantileAcrossBuckets(t *testing.T) {
	var h obs.Hist
	for i := 0; i < 90; i++ {
		recordLatency(&h, 100*time.Nanosecond) // bucket 6: [64, 128)
	}
	for i := 0; i < 10; i++ {
		recordLatency(&h, 100*time.Microsecond) // bucket 16: [65536, 131072)
	}
	s := h.Snapshot()
	if p50 := latencyQuantile(&s, 0.5); p50 < 64 || p50 >= 128 {
		t.Fatalf("p50 = %v, want inside [64ns, 128ns)", p50)
	}
	if p95 := latencyQuantile(&s, 0.95); p95 < 65536 || p95 > 131072 {
		t.Fatalf("p95 = %v, want inside [65.5µs, 131µs]", p95)
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := latencyQuantile(&s, q)
		if cur < prev {
			t.Fatalf("Quantile not monotone: q=%v gave %v after %v", q, cur, prev)
		}
		prev = cur
	}
}

// TestLatencyMerge checks that merging per-worker snapshots sums buckets
// and counts so that merged quantiles equal those of the union population.
func TestLatencyMerge(t *testing.T) {
	var a, b, both obs.Hist
	for i := 0; i < 50; i++ {
		recordLatency(&a, 100*time.Nanosecond)
		recordLatency(&both, 100*time.Nanosecond)
	}
	for i := 0; i < 50; i++ {
		recordLatency(&b, 50*time.Microsecond)
		recordLatency(&both, 50*time.Microsecond)
	}
	merged, union := a.Snapshot(), both.Snapshot()
	merged.Merge(b.Snapshot())
	if merged.Count != 100 {
		t.Fatalf("merged count = %d, want 100", merged.Count)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := latencyQuantile(&merged, q), latencyQuantile(&union, q); got != want {
			t.Fatalf("Quantile(%v): merged %v, union %v", q, got, want)
		}
	}
	var empty obs.Hist
	merged.Merge(empty.Snapshot())
	if merged.Count != 100 {
		t.Fatal("merging an empty histogram changed the count")
	}
}
