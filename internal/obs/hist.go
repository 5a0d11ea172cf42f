package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log2 buckets: bucket i counts values v with
// 2^i <= v < 2^(i+1) (v = 0 lands in bucket 0), enough for the full uint64
// range.
const HistBuckets = 64

// Hist is a concurrent log2-bucketed histogram. Recording is a bit-length
// plus two atomic adds (count is derived from the buckets at snapshot time,
// not maintained), cheap enough to leave enabled in serving workers and
// benchmark loops; any number of goroutines may Record and Snapshot
// concurrently. Batch producers (the reclamation scans) accumulate a local
// BucketCounts and flush it with AddBatch, paying the atomics per distinct
// bucket instead of per sample.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// BucketCounts is a local, non-atomic bucket accumulator for AddBatch.
type BucketCounts [HistBuckets]uint64

// BucketOf returns the log2 bucket index of v.
func BucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v) - 1
}

// BucketUpper returns the exclusive upper bound of bucket i (2^(i+1)); for
// the last bucket it returns the maximum uint64.
func BucketUpper(i int) uint64 {
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return uint64(1) << (i + 1)
}

// Record adds one observation.
func (h *Hist) Record(v uint64) {
	h.buckets[BucketOf(v)].Add(1)
	h.sum.Add(v)
}

// AddBatch folds a locally accumulated bucket array (plus the batch's value
// sum) into the histogram, touching each non-empty bucket once.
func (h *Hist) AddBatch(counts *BucketCounts, sum uint64) {
	for i, c := range counts {
		if c != 0 {
			h.buckets[i].Add(c)
		}
	}
	if sum != 0 {
		h.sum.Add(sum)
	}
}

// Count returns the number of observations so far (a sum over buckets).
func (h *Hist) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot copies the histogram. Taken while writers run it is a slightly
// stale but internally usable view (bucket sums may trail count by the
// writes in flight).
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist. Count is the sum of the
// bucket counts (recomputed at snapshot time so the buckets are always
// internally consistent for cumulative encoding).
type HistSnapshot struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64
}

// MaxBucket returns the index of the highest non-empty bucket (-1 if the
// snapshot is empty); the Prometheus encoder uses it to trim the tail of
// empty buckets.
func (s *HistSnapshot) MaxBucket() int {
	for i := HistBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}

// Quantile estimates the q-quantile (clamped to [0,1]) by locating the
// bucket containing rank q·count and interpolating linearly inside it:
// bucket i spans [2^i, 2^(i+1)), except bucket 0, which starts at 0.
// Quantile(0) is the lower bound of the lowest non-empty bucket, Quantile(1)
// the upper bound of the highest, and the estimate is monotone in q.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo := float64(uint64(1) << i)
			if i == 0 {
				lo = 0
			}
			hi := float64(BucketUpper(i))
			frac := (target - seen) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		seen += float64(c)
	}
	return float64(^uint64(0))
}

// Merge folds other into s.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
}
