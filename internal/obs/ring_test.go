package obs

import (
	"sync"
	"testing"
)

// TestRingWraparound writes more events than the ring holds and checks the
// snapshot retains exactly the newest ringSize events, in order.
func TestRingWraparound(t *testing.T) {
	const size = 16
	r := NewRecorder(1, size)
	const total = 3*size + 5
	for i := 0; i < total; i++ {
		r.Record(0, KindRetire, 0, uint64(i), uint64(2*i))
	}
	if got := r.Written(); got != total {
		t.Fatalf("Written = %d, want %d", got, total)
	}
	if got := r.Dropped(); got != total-size {
		t.Fatalf("Dropped = %d, want %d", got, total-size)
	}
	evs := r.Snapshot()
	if len(evs) != size {
		t.Fatalf("snapshot has %d events, want %d", len(evs), size)
	}
	for i, ev := range evs {
		wantPos := uint64(total - size + i)
		if ev.Pos != wantPos {
			t.Errorf("event %d: pos %d, want %d", i, ev.Pos, wantPos)
		}
		if ev.Epoch != wantPos || ev.Value != 2*wantPos {
			t.Errorf("event %d: payload (%d,%d), want (%d,%d)", i, ev.Epoch, ev.Value, wantPos, 2*wantPos)
		}
		if ev.Kind != KindRetire {
			t.Errorf("event %d: kind %v, want retire", i, ev.Kind)
		}
	}
}

// TestRingSizeRounding checks the capacity rounds up to a power of two.
func TestRingSizeRounding(t *testing.T) {
	r := NewRecorder(1, 100) // → 128
	for i := 0; i < 128; i++ {
		r.Record(0, KindRetire, 0, 0, 0)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d after filling a rounded-up ring, want 0", got)
	}
	r.Record(0, KindRetire, 0, 0, 0)
	if got := r.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d after one overwrite, want 1", got)
	}
}

// TestRingConcurrentSnapshot hammers every ring from its own writer while
// snapshots run; under -race this doubles as the proof the recorder is
// data-race free, and every event a snapshot does return must be internally
// consistent (epoch/value written together).
func TestRingConcurrentSnapshot(t *testing.T) {
	const writers = 4
	r := NewRecorder(writers, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(w, KindRetire, w, i, i+7)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, ev := range r.Snapshot() {
			if ev.Value != ev.Epoch+7 {
				t.Errorf("torn event: epoch %d value %d", ev.Epoch, ev.Value)
			}
			if ev.Tid != ev.Ring {
				t.Errorf("event in ring %d carries tid %d", ev.Ring, ev.Tid)
			}
		}
	}
	close(stop)
	wg.Wait()
}
