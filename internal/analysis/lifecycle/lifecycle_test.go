package lifecycle_test

import (
	"testing"

	"ibr/internal/analysis/checktest"
	"ibr/internal/analysis/lifecycle"
)

// TestStructFields: typestate flows through depth-1 field paths (the
// findResult/window idiom) and publication via node-field stores.
func TestStructFields(t *testing.T) {
	checktest.Run(t, "lifefield/internal/ds", lifecycle.Analyzer)
}

// TestCrossFunction: the retire and the use live in different functions —
// same package (fixpointed summaries) and across packages (exported facts).
func TestCrossFunction(t *testing.T) {
	checktest.Run(t, "lifecross/internal/ds", lifecycle.Analyzer)
}

// TestBranches: a Retire on one CFG path poisons uses after the join;
// returning branches and reassignment keep the fall-through clean.
func TestBranches(t *testing.T) {
	checktest.Run(t, "lifebranch/internal/ds", lifecycle.Analyzer)
}

// TestDoubleRetire: handing one handle to Retire twice along a path is
// reported; rebinding between retires and exclusive branches stay clean.
func TestDoubleRetire(t *testing.T) {
	checktest.Run(t, "retiredouble/internal/ds", lifecycle.Analyzer)
}

// TestClean: the real data-structure idioms (traversal loops, facade
// brackets, failed-insert discards) produce no diagnostics.
func TestClean(t *testing.T) {
	checktest.Run(t, "lifeok/internal/ds", lifecycle.Analyzer)
}

// TestRangeCallback: the range-scan visitor idiom — handles exposed to an
// opaque callback must not escape the StartOp/EndOp bracket, so only
// values, or handles whose lifetime no longer hangs on the reservation, may
// cross.
func TestRangeCallback(t *testing.T) {
	checktest.Run(t, "liferange/internal/ds", lifecycle.Analyzer)
}
