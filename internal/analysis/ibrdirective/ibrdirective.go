// Package ibrdirective validates the //ibrlint: control comments
// themselves: an //ibrlint:ignore must carry a reason string (a bare ignore
// suppresses nothing), unknown verbs are flagged so a typo like
// //ibrlint:ingore does not silently disable a suppression, and a valid
// directive that suppressed no diagnostic from any analyzer in the suite is
// reported as stale — suppressions must not rot in place, ready to hide a
// future real finding.
//
// Staleness is computed from the shared ibrlint.Directives result: every
// analyzer's Reporter marks the directive that suppressed each finding, and
// this analyzer Requires the whole suite so it observes the final usage
// state. Directives in _test.go files are exempt (the suite skips test
// files, so their directives document intent rather than suppress).
package ibrdirective

import (
	"strings"

	"golang.org/x/tools/go/analysis"

	"ibr/internal/analysis/derefguard"
	"ibr/internal/analysis/ibrlint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "ibrdirective",
	Doc:      "validate //ibrlint: directives (ignore requires a reason; stale ignores are flagged)",
	Requires: []*analysis.Analyzer{ibrlint.Directives, derefguard.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	set := pass.ResultOf[ibrlint.Directives].(*ibrlint.DirectiveSet)
	for _, d := range set.All() {
		switch {
		case d.Verb != "ignore":
			pass.Reportf(d.Pos, "unknown ibrlint directive %q (only //ibrlint:ignore <reason> is recognized)", strings.TrimSpace(d.Verb))
		case d.Reason == "":
			pass.Reportf(d.Pos, "//ibrlint:ignore without a reason suppresses nothing; document why the finding is a false positive")
		case !d.Test && !set.Used(d):
			pass.Reportf(d.Pos, "stale //ibrlint:ignore: it suppresses no diagnostic from the suite; delete it so it cannot hide a future finding")
		}
	}
	return nil, nil
}
