package guard_test

import (
	"testing"

	"ibr/internal/core"
	"ibr/internal/epoch"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

type node struct {
	val  uint64
	next core.Ptr
}

func newGuarded(t *testing.T, scheme string) *guard.Guarded[node] {
	t.Helper()
	pool := mem.New[node](mem.Options[node]{Threads: 2})
	s, err := core.New(scheme, pool, core.Options{Threads: 2})
	if err != nil {
		t.Fatalf("core.New(%q): %v", scheme, err)
	}
	return guard.New(s, pool)
}

// TestGuardLifecycle drives a full allocate→publish→load→swap→retire cycle
// through the facade, for a representative scheme of each read-protection
// style (epochs, hazard pointers, intervals).
func TestGuardLifecycle(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "2geibr", "tagibr"} {
		t.Run(scheme, func(t *testing.T) {
			w := newGuarded(t, scheme)
			var root core.Ptr

			w.Do(0, func(g *guard.Guard[node]) {
				if g.Tid() != 0 {
					t.Fatalf("Tid = %d, want 0", g.Tid())
				}
				h := g.Alloc()
				if h.IsNil() {
					t.Fatal("Alloc returned nil handle")
				}
				g.Deref(h).val = 41
				g.Publish(&root, h)
			})

			// A second bracket re-reads the published node and swaps it.
			w.Do(1, func(g *guard.Guard[node]) {
				h := g.LoadRoot(0, &root)
				if h.IsNil() {
					t.Fatal("LoadRoot lost the published handle")
				}
				if v := g.Deref(h).val; v != 41 {
					t.Fatalf("Deref val = %d, want 41", v)
				}
				repl := g.Alloc()
				g.Deref(repl).val = 42
				if !g.CompareAndSwap(&root, h, repl) {
					t.Fatal("CompareAndSwap failed with no contention")
				}
				g.Retire(h)

				// Load through the generic slot path too.
				h2 := g.Load(1, &root)
				if v := g.Deref(h2).val; v != 42 {
					t.Fatalf("after swap, val = %d, want 42", v)
				}
			})

			// Failed-insert shape: a never-published block goes back via
			// Discard, and Restart renews the reservation mid-bracket.
			w.Do(0, func(g *guard.Guard[node]) {
				spare := g.Alloc()
				g.Discard(spare)
				g.Restart()
				if h := g.Load(0, &root); g.Deref(h).val != 42 {
					t.Fatal("value lost across Restart")
				}
			})

			if w.Scheme() == nil || w.Pool() == nil {
				t.Fatal("Scheme/Pool accessors returned nil")
			}
			if got := w.Pool().Stats().Allocs; got != 3 {
				t.Fatalf("pool saw %d allocs, want 3", got)
			}
		})
	}
}

// TestGuardDoBracket checks that Do withdraws the reservation it publishes
// on every exit, normal or panicking, under every registered scheme: a
// bracket left open would pin the reclamation clock like a stalled thread.
func TestGuardDoBracket(t *testing.T) {
	reserving := 0
	for _, scheme := range core.Names() {
		t.Run(scheme, func(t *testing.T) {
			w := newGuarded(t, scheme)
			res := w.Scheme().Reservations()
			published := false
			w.Do(0, func(g *guard.Guard[node]) {
				published = res.At(0).Lower() != epoch.None
			})
			if published {
				reserving++
			}
			if lo := res.At(0).Lower(); lo != epoch.None {
				t.Fatalf("after Do returned, tid 0 still reserves epoch %d", lo)
			}

			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("Do did not propagate fn's panic: recovered %v", r)
					}
				}()
				w.Do(0, func(g *guard.Guard[node]) { panic("boom") })
			}()
			if lo := res.At(0).Lower(); lo != epoch.None {
				t.Fatalf("after Do panicked, tid 0 still reserves epoch %d", lo)
			}

			// A later bracket on the same tid runs normally.
			w.Do(0, func(g *guard.Guard[node]) { g.Discard(g.Alloc()) })
		})
	}
	if reserving == 0 {
		t.Fatal("no scheme published a reservation inside Do: the bracket went unchecked")
	}
}
