package ibrdirective_test

import (
	"testing"

	"ibr/internal/analysis/checktest"
	"ibr/internal/analysis/derefguard"
	"ibr/internal/analysis/ibrdirective"
)

// TestEscapeHatch runs derefguard and ibrdirective together over the
// escape-hatch golden package: valid //ibrlint:ignore directives suppress
// the derefguard finding, while bare or misspelled directives suppress
// nothing and are themselves reported.
func TestEscapeHatch(t *testing.T) {
	checktest.Run(t, "ignorecase/internal/ds", derefguard.Analyzer, ibrdirective.Analyzer)
}

// TestStale runs the same pair over the staleness golden: a directive that
// suppressed a live derefguard finding is used, one that suppresses nothing
// from the whole suite is reported.
func TestStale(t *testing.T) {
	checktest.Run(t, "staleignore/internal/ds", derefguard.Analyzer, ibrdirective.Analyzer)
}
