// Package retirefree enforces retire-before-free (paper §2.1): outside the
// reclamation substrate itself, nothing may return memory to the allocator
// directly. A detached block must go through Scheme.Retire so a reclamation
// scan can prove no reservation still covers its lifetime interval; a direct
// Pool.Free is exactly the use-after-free the schemes exist to prevent.
//
// Allowed callers are the packages ending in internal/core and internal/mem
// (including their tests): the schemes' scans free what they have proven
// unreachable, and the allocator's own tests exercise Free directly.
//
// The one legitimate exception elsewhere — freeing a node that was
// allocated but never published, e.g. discarded after a failed insert —
// must be annotated: //ibrlint:ignore never published.
//
// The cross-tid transfer methods (Scheme.AdoptRetired and
// Scheme.ClearReservation) are held to the same standard: clearing another
// tid's reservation unpins whatever its holder was reading, and adopting a
// retire list reads it
// unsynchronized — sound only when that tid's holder is provably parked
// holding no node references, or dead. Each call site must state that
// evidence in an //ibrlint:ignore directive (the engine's quarantine path
// cites its lease-table verification).
//
// The package also audits retire placement itself: handing the same handle
// to Retire twice along one control-flow path corrupts the retire list (the
// block is freed twice once its interval clears), so a second Retire of a
// variable that was not reassigned in between is flagged.
package retirefree

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"ibr/internal/analysis/ibrlint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "retirefree",
	Doc:      "check that only internal/core and internal/mem free pool memory directly, and that no path retires the same handle twice",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ibrlint.Directives},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if ibrlint.PkgInProtocol(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := ibrlint.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := ibrlint.MemCall(pass.TypesInfo, call, "Free", "FreeBatch", "FreeBatches")
		if fn == nil {
			fn = ibrlint.CoreCall(pass.TypesInfo, call, "Free", "FreeBatch", "FreeBatches")
		}
		if fn != nil {
			rep.Reportf(call.Pos(), "direct %s bypasses reclamation: detached blocks must go through Scheme.Retire (retire-before-free, paper §2.1)", fn.Name())
			return
		}
		if fn = ibrlint.CoreCall(pass.TypesInfo, call, "AdoptRetired", "ClearReservation"); fn != nil {
			rep.Reportf(call.Pos(), "cross-tid %s acts on another thread's reservation state: annotate the parked-or-dead evidence with //ibrlint:ignore", fn.Name())
		}
	})

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, f := range pass.Files {
		if ibrlint.TestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if g := cfgs.FuncDecl(fd); g != nil {
				checkDoubleRetire(pass, rep, g, fd.Body)
			}
		}
	}
	return nil, nil
}

// --- double-Retire-on-one-path check ---------------------------------------
//
// A small CFG dataflow over the variables that appear as a Retire argument:
// Retire sets the variable's bit, any assignment (or range rebinding) to it
// clears the bit, and a Retire while the bit is set is reported with the
// first retiring position. Only plain identifiers are tracked — the
// lifecycle analyzer does the alias- and field-aware version inside
// internal/ds; this check is the cheap tree-wide backstop.

type retireEvent struct {
	v      int // candidate index
	retire bool
	pos    token.Pos
}

func checkDoubleRetire(pass *analysis.Pass, rep *ibrlint.Reporter, g *cfg.CFG, body *ast.BlockStmt) {
	objOf := func(id *ast.Ident) types.Object {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[id]
	}

	// Range Key/Value variables are excluded as candidates outright: go/cfg
	// places their assignment before the loop, not on the back edge, so the
	// per-iteration rebinding would never kill the retired bit and every
	// `for _, h := range hs { Retire(h) }` loop would be a false positive.
	excluded := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			for _, e := range []ast.Expr{r.Key, r.Value} {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && e != nil {
					if obj := objOf(id); obj != nil {
						excluded[obj] = true
					}
				}
			}
		}
		return true
	})

	// Pass 1: candidates = identifiers retired somewhere in this function.
	vars := make(map[types.Object]int)
	var names []string
	retireArg := func(call *ast.CallExpr) *ast.Ident {
		var e ast.Expr
		if ibrlint.CoreCall(pass.TypesInfo, call, "Retire") != nil && len(call.Args) > 1 {
			e = call.Args[1]
		} else if ibrlint.GuardCall(pass.TypesInfo, call, "Retire") != nil && len(call.Args) > 0 {
			e = call.Args[0]
		}
		if e == nil {
			return nil
		}
		id, _ := ast.Unparen(e).(*ast.Ident)
		return id
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id := retireArg(call); id != nil {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && !excluded[obj] {
					if _, seen := vars[obj]; !seen && len(vars) < 64 {
						vars[obj] = len(names)
						names = append(names, id.Name)
					}
				}
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}

	killTarget := func(e ast.Expr, evs *[]retireEvent) {
		if e == nil {
			return
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := vars[objOf(id)]; ok {
				*evs = append(*evs, retireEvent{v: v, retire: false})
			}
		}
	}

	// Pass 2: per-block events.
	blocks := g.Blocks
	events := make([][]retireEvent, len(blocks))
	index := make(map[*cfg.Block]int, len(blocks))
	for i, b := range blocks {
		index[b] = i
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						killTarget(l, &events[i])
					}
				case *ast.RangeStmt:
					killTarget(n.Key, &events[i])
					killTarget(n.Value, &events[i])
				case *ast.CallExpr:
					if id := retireArg(n); id != nil {
						if v, ok := vars[objOf(id)]; ok {
							events[i] = append(events[i], retireEvent{v: v, retire: true, pos: n.Pos()})
						}
					}
				}
				return true
			})
		}
	}

	// Pass 3: may-retired worklist fixpoint, then report.
	firstAt := make([]token.Pos, len(vars))
	transfer := func(s uint64, evs []retireEvent, report bool) uint64 {
		for _, ev := range evs {
			b := uint64(1) << uint(ev.v)
			if !ev.retire {
				s &^= b
				continue
			}
			if s&b != 0 && report {
				line := pass.Fset.Position(firstAt[ev.v]).Line
				rep.Reportf(ev.pos, "%s is retired again on this path: already handed to Retire at line %d (double retire)", names[ev.v], line)
			}
			// Anchor diagnostics to the source-earliest retire: the worklist
			// visits blocks in an order unrelated to source order.
			if firstAt[ev.v] == token.NoPos || ev.pos < firstAt[ev.v] {
				firstAt[ev.v] = ev.pos
			}
			s |= b
		}
		return s
	}

	in := make([]uint64, len(blocks))
	seen := make([]bool, len(blocks))
	seen[0] = true
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(in[i], events[i], false)
		for _, succ := range blocks[i].Succs {
			j := index[succ]
			next := out
			if seen[j] {
				next = in[j] | out
				if next == in[j] {
					continue
				}
			}
			in[j] = next
			seen[j] = true
			work = append(work, j)
		}
	}
	for i := range blocks {
		if seen[i] {
			transfer(in[i], events[i], true)
		}
	}
}
