package derefguard_test

import (
	"testing"

	"ibr/internal/analysis/checktest"
	"ibr/internal/analysis/derefguard"
)

func TestFlagged(t *testing.T) {
	checktest.Run(t, "derefbad/internal/ds", derefguard.Analyzer)
}

func TestClean(t *testing.T) {
	checktest.Run(t, "derefok/internal/ds", derefguard.Analyzer)
}

// TestSubstrateExempt: inside the boundary the protocol surface is the
// implementation, so raw calls in a core package and in the guard facade
// itself are not findings.
func TestSubstrateExempt(t *testing.T) {
	checktest.Run(t, "derefexempt/internal/core", derefguard.Analyzer)
	checktest.Run(t, "stub/internal/guard", derefguard.Analyzer)
}
