// Package derefguard draws the IBR protocol boundary. Paper Fig. 1's
// contract (§2–§3) is that a block is touched only inside a StartOp/EndOp
// reservation, a detached block is retired rather than freed, and every
// birth epoch is stamped. internal/core and internal/mem implement that
// contract and internal/guard wraps it; every other package reaches it only
// through the guard facade. In their non-test files, a call to the
// protocol surface is a finding:
//
//   - core.Scheme: StartOp, EndOp, RestartOp, Alloc, Retire, Read,
//     ReadRoot, Write, CompareAndSwap, Unreserve, TransferSlot,
//     ClearReservation
//   - mem.Pool: Get, Alloc, Free, FreeBatches, SetBirth,
//     SetRetireEpoch, MarkRetired
//
// Control-block and stats reads (ScanStats, Clock, Reservations, Drain,
// Unreclaimed, Pool.Stats and the like) stay legal, and so do Ptr.Raw and
// Ptr.FetchOrMarks: compare-only loads whose handles can only be
// dereferenced through a Guard. The facade's own implementation is checked
// at runtime instead (guard's TestGuardDoBracket, core's
// TestBirthEpochStamped).
//
// A deliberate raw call (an injected staller's bare reservation, the
// serving engine's cross-tid quarantine clear) carries an
// //ibrlint:ignore directive stating why the contract still holds. Test
// files are exempt: tests deliberately stage quiescent inspections.
package derefguard

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"ibr/internal/analysis/ibrlint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "derefguard",
	Doc:      "check that packages outside internal/core, internal/mem and internal/guard reach the reservation protocol only through internal/guard",
	Requires: []*analysis.Analyzer{ibrlint.Directives},
	Run:      run,
}

// schemeSurface and poolSurface map each protocol method to the facade call
// that replaces it; "" means none does.
var schemeSurface = map[string]string{
	"StartOp":          "Guarded.Do",
	"EndOp":            "Guarded.Do",
	"RestartOp":        "Guard.Restart",
	"Alloc":            "Guard.Alloc",
	"Retire":           "Guard.Retire",
	"Read":             "Guard.Load",
	"ReadRoot":         "Guard.LoadRoot",
	"Write":            "Guard.Publish",
	"CompareAndSwap":   "Guard.CompareAndSwap",
	"Unreserve":        "Guarded.Do",
	"TransferSlot":     "Guard.TransferSlot",
	"ClearReservation": "",
}

var poolSurface = map[string]string{
	"Get":            "Guard.Deref",
	"Alloc":          "Guard.Alloc",
	"Free":           "Guard.Retire, or Guard.Discard for a never-published block",
	"FreeBatches":    "Guard.Retire",
	"SetBirth":       "Guard.Alloc",
	"SetRetireEpoch": "Guard.Retire",
	"MarkRetired":    "Guard.Retire",
}

func run(pass *analysis.Pass) (any, error) {
	if ibrlint.InBoundary(pass.Pkg.Path()) {
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
			if alt, ok := surface(fn); ok {
				recv := recvName(fn)
				if alt == "" {
					rep.Reportf(call.Pos(), "raw %s.%s bypasses the guard facade, which has no equivalent: state why the protocol still holds in an //ibrlint:ignore directive", recv, fn.Name())
				} else {
					rep.Reportf(call.Pos(), "raw %s.%s bypasses the guard facade: use %s", recv, fn.Name(), alt)
				}
			}
			return true
		})
	}
	return nil, nil
}

// surface reports whether fn is on the protocol surface, and the facade
// call that replaces it.
func surface(fn *types.Func) (alt string, ok bool) {
	recv := recvName(fn)
	switch path := fn.Pkg().Path(); {
	case ibrlint.PkgIs(path, ibrlint.CorePkg) && recv != "Ptr":
		alt, ok = schemeSurface[fn.Name()]
	case ibrlint.PkgIs(path, ibrlint.MemPkg) && recv == "Pool":
		alt, ok = poolSurface[fn.Name()]
	}
	return alt, ok
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
