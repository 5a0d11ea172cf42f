// Command ibrlint statically enforces the IBR reservation protocol over
// this repository. It is a go/analysis unitchecker driver, meant to be run
// through the go command, which supplies package loading, export data, and
// caching:
//
//	go build -o bin/ibrlint ./cmd/ibrlint
//	go vet -vettool=bin/ibrlint ./...
//
// (That is exactly what `make lint` does.) The suite:
//
//	derefguard   the protocol boundary: outside internal/core, internal/mem
//	             and internal/guard, no raw core.Scheme protocol call
//	             (StartOp, EndOp, Alloc, Retire, Read, Write, CAS, the
//	             cross-tid transfers, ...) and no mem.Pool Get, Alloc, Free
//	             or header write, so every access is bracketed by
//	             Guarded.Do, nothing is freed unretired, and every block is
//	             allocated birth-stamped
//	ibrdirective //ibrlint:ignore directives carry a reason and actually
//	             suppress something (stale ignores are flagged)
//
// What happens inside the facade is checked by running it: the ibrdebug
// build's freed-slot panic under internal/ds's traversal adversary
// (TestAdversary), the soak and the race detector for the structures, and
// guard's TestGuardDoBracket and core's TestBirthEpochStamped for the
// facade's own implementation (DESIGN.md §5b).
//
// False positives are suppressed with `//ibrlint:ignore <reason>` on the
// flagged line, the line above it, or the doc comment of the enclosing
// function. The reason string is mandatory, and a directive that stops
// suppressing anything is itself reported.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"ibr/internal/analysis/derefguard"
	"ibr/internal/analysis/ibrdirective"
)

func main() {
	unitchecker.Main(derefguard.Analyzer, ibrdirective.Analyzer)
}
