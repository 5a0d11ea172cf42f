// Package derefguard keeps the data-structure layer on the guard facade,
// which is how it enforces the read-side reservation discipline of the IBR
// protocol (paper Fig. 1, §2–§3: a block is safe to touch only inside a
// reservation). In non-test files of a package ending in internal/ds, every
// core.Scheme method call and every mem.Pool.Get call is a finding: a
// structure opens its bracket with guard.Guarded.Do and touches handles only
// through the Guard that Do passes, so no access can sit outside a bracket.
//
// Ptr.Raw and Ptr.FetchOrMarks stay legal. They are compare-only loads, and
// the handles they return can only be dereferenced through a Guard.
//
// Test files are exempt: tests deliberately stage quiescent inspections.
package derefguard

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"ibr/internal/analysis/ibrlint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "derefguard",
	Doc:      "check that internal/ds reaches the reservation protocol only through internal/guard",
	Requires: []*analysis.Analyzer{ibrlint.Directives},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if !ibrlint.PkgIs(pass.Pkg.Path(), "internal/ds") {
		return nil, nil
	}
	rep := ibrlint.NewReporter(pass)
	for _, f := range pass.Files {
		if ibrlint.TestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := ibrlint.MethodCallee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			recv := recvName(fn)
			if ibrlint.PkgIs(fn.Pkg().Path(), ibrlint.CorePkg) && recv != "Ptr" ||
				ibrlint.IsMethod(fn, ibrlint.MemPkg, "Get") && recv == "Pool" {
				rep.Reportf(call.Pos(), "raw %s.%s in internal/ds: go through internal/guard (bracket with Guarded.Do, touch handles through its Guard)", recv, fn.Name())
			}
			return true
		})
	}
	return nil, nil
}

// recvName is the name of fn's receiver type, e.g. "Scheme" or "Pool".
func recvName(fn *types.Func) string {
	recv := fn.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(interface{ Obj() *types.TypeName }); ok {
		return n.Obj().Name()
	}
	return recv.String()
}
