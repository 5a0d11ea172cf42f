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
//	atomicmix    a word accessed through sync/atomic is never accessed
//	             plainly elsewhere
//	lifecycle    handle typestate: no use, retire, free, or publish of a
//	             handle after it was retired on some path; no protected-read
//	             handle exposed to a visitor callback from an exported scan
//	             (range visitors receive values, not handles). Flows through
//	             struct fields and across function boundaries (facts)
//	ibrdirective //ibrlint:ignore directives carry a reason and actually
//	             suppress something (stale ignores are flagged)
//
// The facade's own implementation, inside the boundary, is checked at
// runtime: guard's TestGuardDoBracket and core's TestBirthEpochStamped.
//
// False positives are suppressed with `//ibrlint:ignore <reason>` on the
// flagged line, the line above it, or the doc comment of the enclosing
// function. The reason string is mandatory, and a directive that stops
// suppressing anything is itself reported.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"ibr/internal/analysis/atomicmix"
	"ibr/internal/analysis/derefguard"
	"ibr/internal/analysis/ibrdirective"
	"ibr/internal/analysis/lifecycle"
)

func main() {
	unitchecker.Main(
		derefguard.Analyzer,
		atomicmix.Analyzer,
		lifecycle.Analyzer,
		ibrdirective.Analyzer,
	)
}
