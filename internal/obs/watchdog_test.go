package obs

import (
	"testing"
	"time"
)

// fakeSource is a hand-driven reservation table.
type fakeSource struct {
	epoch  uint64
	lowers []uint64
}

func (f *fakeSource) source() Source {
	return Source{
		Label:  "fake",
		Epoch:  func() uint64 { return f.epoch },
		Lowers: func(buf []uint64) []uint64 { return append(buf, f.lowers...) },
	}
}

func TestWatchdogStallAlert(t *testing.T) {
	f := &fakeSource{epoch: 100, lowers: []uint64{NoEpoch, NoEpoch}}
	rec := NewRecorder(1, 16)
	// Huge interval: the test drives Tick by hand; threshold 1ns means any
	// reservation surviving two ticks is past it.
	w := NewWatchdog([]Source{f.source()}, time.Nanosecond, time.Hour, rec, 0)

	w.Tick()
	if w.Alerts() != 0 || w.Stalled() != 0 {
		t.Fatalf("idle table raised alerts=%d stalled=%d", w.Alerts(), w.Stalled())
	}

	// Slot 1 publishes and holds the same lower endpoint.
	f.lowers[1] = 40
	w.Tick() // first observation: clock starts
	time.Sleep(time.Millisecond)
	w.Tick() // still held past threshold → one alert
	if w.Alerts() != 1 {
		t.Fatalf("Alerts = %d after held reservation, want 1", w.Alerts())
	}
	if w.Stalled() != 1 {
		t.Fatalf("Stalled = %d, want 1", w.Stalled())
	}
	w.Tick() // still stalled: edge-triggered, no second alert
	if w.Alerts() != 1 {
		t.Fatalf("Alerts = %d after repeat tick, want still 1", w.Alerts())
	}

	// The stall event landed in the system ring.
	evs := rec.Snapshot()
	if len(evs) != 1 || evs[0].Kind != KindStall || evs[0].Tid != 1 || evs[0].Value != 40 {
		t.Fatalf("stall event wrong: %+v", evs)
	}

	// EndOp: the slot clears, gauge drops, alert re-arms.
	f.lowers[1] = NoEpoch
	w.Tick()
	if w.Stalled() != 0 {
		t.Fatalf("Stalled = %d after clear, want 0", w.Stalled())
	}
	f.lowers[1] = 90
	w.Tick()
	time.Sleep(time.Millisecond)
	w.Tick()
	if w.Alerts() != 2 {
		t.Fatalf("Alerts = %d after second stall episode, want 2", w.Alerts())
	}
}

// TestWatchdogProgressNoAlert: a slot that republishes fresh lower
// endpoints (a making-progress thread) never alerts.
func TestWatchdogProgressNoAlert(t *testing.T) {
	f := &fakeSource{epoch: 10, lowers: []uint64{5}}
	w := NewWatchdog([]Source{f.source()}, time.Nanosecond, time.Hour, nil, 0)
	for i := 0; i < 5; i++ {
		w.Tick()
		time.Sleep(time.Millisecond)
		f.lowers[0]++ // StartOp of the next operation: new epoch
		f.epoch++
	}
	if w.Alerts() != 0 {
		t.Fatalf("Alerts = %d for a progressing thread, want 0", w.Alerts())
	}
}

// TestWatchdogStartStop exercises the goroutine path.
func TestWatchdogStartStop(t *testing.T) {
	f := &fakeSource{epoch: 3, lowers: []uint64{1}}
	w := NewWatchdog([]Source{f.source()}, time.Microsecond, time.Millisecond, nil, 0)
	w.Start()
	deadline := time.Now().Add(2 * time.Second)
	for w.Alerts() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	if w.Alerts() == 0 {
		t.Fatal("polling watchdog never alerted on a held reservation")
	}
}
