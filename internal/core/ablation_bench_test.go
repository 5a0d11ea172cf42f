package core

import (
	"testing"

	"ibr/internal/mem"
)

// Ablation benchmarks for the design choices DESIGN.md §1b calls out.
// Run with: go test ./internal/core -bench Ablation -benchtime 0.5s

// BenchmarkAblationReadRevalidation measures the publish-first read's
// retry cost as a function of epoch-advance pressure: the loop re-reads
// only when the epoch (2GE) or born tag (TagIBR) moved past the published
// upper endpoint, so the overhead the safe ordering adds over the
// (unsafe) literal Fig. 5/6 protocols is bounded by the advance rate.
func BenchmarkAblationReadRevalidation(b *testing.B) {
	for _, name := range []string{"tagibr", "2geibr"} {
		for _, advanceEvery := range []int{0, 64, 1} { // 0 = never
			label := map[int]string{0: "quiet-epoch", 64: "advance-per-64", 1: "advance-per-read"}[advanceEvery]
			b.Run(name+"/"+label, func(b *testing.B) {
				pool := mem.New[tnode](mem.Options[tnode]{Threads: 1})
				s, _ := New(name, pool, Options{Threads: 1, EpochFreq: 1 << 30, EmptyFreq: 1 << 30})
				var p Ptr
				h := s.Alloc(0)
				s.Write(0, &p, h)
				s.StartOp(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if advanceEvery > 0 && i%advanceEvery == 0 {
						s.Clock().Advance()
					}
					s.Read(0, 0, &p)
				}
				b.StopTimer()
				s.EndOp(0)
			})
		}
	}
}

// BenchmarkAblationScanCost measures empty() as a function of retire-list
// length — the quantity behind the single-CPU throughput inversion
// documented in EXPERIMENTS.md. One pinned reservation keeps every block
// unreclaimable. Historically each scan re-walked the full list (cost grew
// with list-len); the summarized scan skips the pinned run in one binary
// search, so the three sizes should now cost nearly the same per scan —
// that flattening is the regression this benchmark watches.
func BenchmarkAblationScanCost(b *testing.B) {
	for _, listLen := range []int{32, 1024, 32768} {
		b.Run(byLen(listLen), func(b *testing.B) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 2, MaxSlots: 1 << 17})
			s, _ := New("tagibr", pool, Options{Threads: 2, EpochFreq: 64, EmptyFreq: 1 << 30})
			// Pin everything with a wide reservation on thread 1.
			s.Reservations().At(1).Set(1, 1<<60)
			for i := 0; i < listLen; i++ {
				s.Retire(0, s.Alloc(0))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Drain(0) // scans listLen blocks, frees none
			}
			b.StopTimer()
			b.ReportMetric(float64(listLen), "list-len")
			s.Reservations().At(1).Clear()
			s.Drain(0)
		})
	}
}

func byLen(n int) string {
	switch {
	case n < 100:
		return "list-32"
	case n < 10000:
		return "list-1k"
	default:
		return "list-32k"
	}
}
