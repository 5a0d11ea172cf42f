//go:build ibrdebug

package guard_test

import (
	"testing"

	"ibr/internal/core"
	"ibr/internal/guard"
)

// TestGuardEscapePanics proves the ibrdebug liveness check: a Guard
// retained past its Do bracket panics on the next touch point instead of
// issuing an unprotected read.
func TestGuardEscapePanics(t *testing.T) {
	w := newGuarded(t, "2geibr")
	var leaked *guard.Guard[node]
	var root core.Ptr
	w.Do(0, func(g *guard.Guard[node]) { leaked = g })

	defer func() {
		if recover() == nil {
			t.Fatal("Load on a Guard outside its Do bracket did not panic")
		}
	}()
	leaked.Load(0, &root)
}

// TestGuardEscapeAfterLaterBracketPanics: Do hands out the tid's one
// preallocated Guard, so a leaked Guard is the same object a later bracket
// of its tid re-arms. Once that bracket closes too, the leaked Guard must
// panic again.
func TestGuardEscapeAfterLaterBracketPanics(t *testing.T) {
	w := newGuarded(t, "2geibr")
	var leaked *guard.Guard[node]
	var root core.Ptr
	w.Do(0, func(g *guard.Guard[node]) { leaked = g })
	w.Do(0, func(g *guard.Guard[node]) { g.Load(0, &root) })

	defer func() {
		if recover() == nil {
			t.Fatal("Load on a leaked Guard after a later bracket of its tid closed did not panic")
		}
	}()
	leaked.Load(0, &root)
}
