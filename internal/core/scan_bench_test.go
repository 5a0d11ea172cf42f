package core

import (
	"testing"

	"ibr/internal/mem"
)

// BenchmarkScan measures one Drain over the three paths the summarized scan
// takes, per scheme family:
//
//   - pinned: a stalled reader's window covers every retired block; the scan
//     must skip the whole backlog (one binary search), freeing nothing.
//     Cost should be flat in the backlog size.
//   - free-all: no reservations; every retired block takes the
//     retire < minLower fast path and the batch is returned to the pool in
//     one FreeBatch. Reported per retired block.
//   - general: stale reservations force the sorted-prefix test on every
//     block (retire ≥ minLower, outside the protected window) and every
//     block is then freed. Reported per retired block.
//
// Run with:
//
//	go test ./internal/core -bench Scan -benchtime 0.5s
func BenchmarkScan(b *testing.B) {
	b.Run("pinned", func(b *testing.B) {
		for _, name := range []string{"ebr", "tagibr"} {
			for _, listLen := range []int{1024, 32768} {
				b.Run(name+"/"+byLen(listLen), func(b *testing.B) {
					pool := mem.New[tnode](mem.Options[tnode]{Threads: 2, MaxSlots: 1 << 17})
					s, _ := New(name, pool, Options{Threads: 2, EpochFreq: 64, EmptyFreq: 1 << 30})
					s.Reservations().At(1).Set(1, 1<<60)
					for i := 0; i < listLen; i++ {
						s.Retire(0, s.Alloc(0))
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.Drain(0) // skips listLen pinned blocks, frees none
					}
					b.StopTimer()
					s.Reservations().At(1).Clear()
					s.Drain(0)
				})
			}
		}
	})

	const batch = 256
	b.Run("free-all", func(b *testing.B) {
		for _, name := range []string{"ebr", "tagibr", "2geibr"} {
			b.Run(name, func(b *testing.B) {
				pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 1 << 16})
				s, _ := New(name, pool, Options{Threads: 1, EpochFreq: 1 << 30, EmptyFreq: 1 << 30})
				clk := s.Clock()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < batch; k++ {
						s.Retire(0, s.Alloc(0))
					}
					clk.Advance() // every retire is now strictly in the past
					s.Drain(0)    // frees the whole batch
				}
				b.StopTimer()
				if n := s.Unreclaimed(0); n != 0 {
					b.Fatalf("%d blocks unreclaimed in the free-all case", n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/block")
			})
		}
	})

	b.Run("general", func(b *testing.B) {
		pool := mem.New[tnode](mem.Options[tnode]{Threads: 9, MaxSlots: 1 << 16})
		s, _ := New("tagibr", pool, Options{Threads: 9, EpochFreq: 1 << 30, EmptyFreq: 1 << 30})
		clk := s.Clock()
		// Eight stale single-epoch reservations below every birth this loop
		// produces: retire ≥ minLower rules out the fast path, retire > winHi
		// rules out the window skip, and birth > every upper endpoint means
		// the prefix-max test frees each block after doing real work.
		for tid := 1; tid <= 8; tid++ {
			s.Reservations().At(tid).Set(uint64(tid)+1, uint64(tid)+1)
			clk.Advance()
		}
		clk.Advance()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch; k++ {
				s.Retire(0, s.Alloc(0))
			}
			clk.Advance()
			s.Drain(0)
		}
		b.StopTimer()
		if n := s.Unreclaimed(0); n != 0 {
			b.Fatalf("%d blocks unreclaimed in the general case", n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/block")
	})
}
