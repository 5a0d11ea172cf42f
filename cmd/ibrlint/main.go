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
//	derefguard   internal/ds reaches the protocol only through the
//	             internal/guard facade: no raw core.Scheme method calls
//	             and no mem.Pool.Get, so every access is bracketed by Do
//	endop        every StartOp is matched by EndOp on all return paths
//	retirefree   only internal/core and internal/mem may Free directly;
//	             data structures must Scheme.Retire
//	epochstamp   allocator handles are birth-stamped (SetBirth) before
//	             they escape; structures allocate via Scheme.Alloc
//	atomicmix    a word accessed through sync/atomic is never accessed
//	             plainly elsewhere
//	lifecycle    handle typestate: no use, retire, free, or publish of a
//	             handle after it was retired on some path; no read handle
//	             outliving its op's EndOp unpublished; no protected-read
//	             handle exposed to a visitor callback from an exported scan
//	             (range visitors receive values, not handles). Flows through
//	             struct fields and across function boundaries (facts)
//	ibrdirective //ibrlint:ignore directives carry a reason and actually
//	             suppress something (stale ignores are flagged)
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
	"ibr/internal/analysis/endop"
	"ibr/internal/analysis/epochstamp"
	"ibr/internal/analysis/ibrdirective"
	"ibr/internal/analysis/lifecycle"
	"ibr/internal/analysis/retirefree"
)

func main() {
	unitchecker.Main(
		derefguard.Analyzer,
		endop.Analyzer,
		retirefree.Analyzer,
		epochstamp.Analyzer,
		atomicmix.Analyzer,
		lifecycle.Analyzer,
		ibrdirective.Analyzer,
	)
}
