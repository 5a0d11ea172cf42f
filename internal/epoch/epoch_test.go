package epoch

import (
	"sync"
	"testing"
	"unsafe"
)

func TestClockStartsAtOne(t *testing.T) {
	c := NewClock()
	if c.Now() != 1 {
		t.Fatalf("Now() = %d, want 1", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if got := c.Advance(); got != 2 {
		t.Fatalf("Advance() = %d, want 2", got)
	}
	if c.Now() != 2 {
		t.Fatalf("Now() = %d, want 2", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	const threads, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance()
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 1+threads*per {
		t.Fatalf("Now() = %d, want %d (lost increments)", got, 1+threads*per)
	}
}

func TestReservationLifecycle(t *testing.T) {
	tb := NewTable(3)
	r := tb.At(1)
	if r.Lower() != None || r.Upper() != None {
		t.Fatal("fresh reservation not idle")
	}
	r.Set(5, 9)
	if r.Lower() != 5 || r.Upper() != 9 {
		t.Fatalf("interval = [%d,%d], want [5,9]", r.Lower(), r.Upper())
	}
	r.SetUpper(12)
	if r.Lower() != 5 || r.Upper() != 12 {
		t.Fatal("SetUpper clobbered lower")
	}
	r.Clear()
	if r.Lower() != None || r.Upper() != None {
		t.Fatal("Clear did not idle the reservation")
	}
}

func TestMinLower(t *testing.T) {
	tb := NewTable(4)
	if tb.MinLower() != None {
		t.Fatal("all-idle table should report None")
	}
	tb.At(2).Set(7, 7)
	tb.At(0).Set(3, 10)
	if tb.MinLower() != 3 {
		t.Fatalf("MinLower = %d, want 3", tb.MinLower())
	}
	tb.At(0).Clear()
	if tb.MinLower() != 7 {
		t.Fatalf("MinLower = %d, want 7", tb.MinLower())
	}
}

// TestReservationPadding pins the anti-false-sharing layout: consecutive
// reservations must not share a 64-byte line for their hot fields.
func TestReservationPadding(t *testing.T) {
	tb := NewTable(2)
	a := uintptr(unsafe.Pointer(&tb.res[0].lower))
	b := uintptr(unsafe.Pointer(&tb.res[1].lower))
	if d := b - a; d < 64 {
		t.Fatalf("adjacent reservations %d bytes apart; want >= 64", d)
	}
}
