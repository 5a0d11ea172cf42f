// Package lifecycle assigns every mem.Handle value a typestate — local,
// published, retired — and flows it along CFG paths, through struct
// fields, and across function boundaries (via go/analysis facts) to catch
// protocol violations that a per-call-site rule cannot see:
//
//   - any read, Retire, publish, or escape of a handle after its Retire on
//     some path is reported, with the retiring statement in the diagnostic;
//   - a handle that was definitely published must not be freed directly;
//   - a protected-read handle must not reach an opaque visitor callback of
//     an exported scan, which could retain it past the bracket.
//
// The state machine:
//
//	 Alloc                    Read/Load
//	   │                          │ (enters at published: the
//	   ▼                          ▼  value is structure-reachable)
//	┌─────┐   Write/CAS/store ┌─────────┐
//	│local│ ────────────────▶ │published│
//	└─────┘                   └─────────┘
//	   │                          │
//	   │ Retire    ┌───────┐      │ Retire (after unlink)
//	   └─────────▶ │retired│ ◀────┘
//	               └───────┘
//
// Retired is a sink state: any further dereference, publish, or escape is
// a diagnostic. Aliases created by assignment share state, and assignment
// to a variable divorces it from its old aliases, so loops that
// retire-then-reacquire (the Harris–Michael unlink idiom) stay clean.
//
// The analyzer trusts the internal/guard facade: Guard.Load, Publish,
// Retire, Deref, and Discard are protocol events exactly like the raw
// Scheme calls. derefguard keeps every package outside the boundary on the
// facade, and the facade's own implementation is checked at runtime
// (guard's TestGuardDoBracket, core's TestBirthEpochStamped).
// Diagnostics are reported only inside internal/ds packages; every package
// that touches the protocol gets parameter-effect summaries so the ds-side
// reports see through helpers.
package lifecycle

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"ibr/internal/analysis/ibrlint"
)

var Analyzer = &analysis.Analyzer{
	Name:      "lifecycle",
	Doc:       "track handle typestates (local/published/retired) across paths, fields, and calls",
	Requires:  []*analysis.Analyzer{ctrlflow.Analyzer, ibrlint.Directives},
	FactTypes: []analysis.Fact{(*Summary)(nil)},
	Run:       run,
}

// maxVars caps the tracked handle variables per function: the alias sets
// are uint64 bitmasks. Functions juggling more than 64 distinct handles do
// not exist in this tree; overflow variables simply go untracked.
const maxVars = 64

// maxFixpointRounds bounds the intra-package summary iteration. Effects
// only accumulate, so the fixpoint terminates long before this; the cap is
// a safety net against a transfer-function bug looping forever.
const maxFixpointRounds = 20

// Handle methods that return the receiver's handle with bits adjusted: the
// result denotes the same block, so state flows through them.
var preserveMethods = []string{
	"Addr", "ClearMarks", "ClearMark0", "ClearMark1",
	"WithMark0", "WithMark1", "WithMarks", "WithEpoch",
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	// The protocol substrate and the facade implement the life cycle; their
	// runtime tests check them, not the typestate.
	if ibrlint.InBoundary(path) {
		return nil, nil
	}
	if !touchesProtocol(pass.Pkg) {
		return nil, nil // cheap early-out: stdlib and unrelated packages
	}

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	type entry struct {
		fn *types.Func
		fa *funcAnalysis
	}
	var entries []entry
	sums := make(map[*types.Func]*Summary)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g := cfgs.FuncDecl(fd)
			if g == nil {
				continue
			}
			fa := prepare(pass, sums, g, fd.Body, fn.Signature(), fd.Name.IsExported(),
				ibrlint.FuncLitBindings(pass.TypesInfo, fd.Body))
			if fa == nil {
				continue // no tracked handles in this function
			}
			entries = append(entries, entry{fn, fa})
		}
	}

	// Intra-package fixpoint: helper summaries feed their callers' transfer
	// functions, so chains like remove → unlink → Retire converge.
	for round := 0; round < maxFixpointRounds; round++ {
		changed := false
		for _, e := range entries {
			s := e.fa.analyze(nil)
			if !sumEqual(sums[e.fn], s) {
				sums[e.fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, e := range entries {
		if s := sums[e.fn]; s != nil && s.nonzero() {
			pass.ExportObjectFact(e.fn, s)
		}
	}

	// Diagnostics are scoped to the data-structure layer. Test files are
	// exempt like everywhere else in the suite: tests stage quiescent and
	// deliberately broken states.
	if !ibrlint.PkgIs(path, "internal/ds") {
		return nil, nil
	}
	rep := ibrlint.NewReporter(pass)
	for _, e := range entries {
		if ibrlint.TestFile(pass, e.fa.body.Pos()) {
			continue
		}
		e.fa.analyze(rep)
	}
	// Closures (the Guarded.Do bodies after the facade port) are analyzed
	// standalone: their captured environment enters untracked, which is
	// sound for reporting. A closure inherits its enclosing declaration's
	// visitor-exposure context: exported-ness and the set of locally bound
	// closures (a captured recursive walk is still visible code).
	for _, f := range pass.Files {
		if ibrlint.TestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			exposed := true
			root := ast.Node(d)
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Body == nil {
					continue
				}
				exposed = fd.Name.IsExported()
				root = fd.Body
			}
			ast.Inspect(root, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				g := cfgs.FuncLit(lit)
				if g == nil {
					return true
				}
				sig, ok := pass.TypesInfo.TypeOf(lit).(*types.Signature)
				if !ok {
					return true
				}
				// Bindings from the enclosing declaration, so the captured
				// recursive-walk idiom stays exempt.
				locals := ibrlint.FuncLitBindings(pass.TypesInfo, root)
				if fa := prepare(pass, sums, g, lit.Body, sig, exposed, locals); fa != nil {
					fa.analyze(rep)
				}
				return true
			})
		}
	}
	return nil, nil
}

// touchesProtocol reports whether pkg directly imports a protocol package.
// Everything the analyzer can say about a package that does not is vacuous,
// and with facts declared the driver runs us over every dependency
// (including the standard library), so the early-out matters.
func touchesProtocol(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		p := imp.Path()
		if ibrlint.PkgIs(p, ibrlint.CorePkg) || ibrlint.PkgIs(p, ibrlint.MemPkg) || ibrlint.PkgIs(p, ibrlint.GuardPkg) {
			return true
		}
	}
	return false
}

// --- per-function preparation ----------------------------------------------

// varKey names a tracked storage location: a handle-typed local/parameter
// (field == "") or a depth-1 handle field path base.field.
type varKey struct {
	obj   types.Object
	field string
}

type funcAnalysis struct {
	pass *analysis.Pass
	sums map[*types.Func]*Summary // package-local summaries (shared, fixpointed)
	g    *cfg.CFG
	body *ast.BlockStmt

	vars     map[varKey]int
	keys     []varKey
	paramIdx []int                  // var index -> signature param position, or -1
	deps     map[types.Object][]int // base object -> its tracked field vars
	excluded map[types.Object]bool
	exKeys   map[varKey]bool

	events  [][]event // per CFG block, in source order
	nparams int

	// exposed marks a body whose callbacks come from outside the package
	// surface (an exported function, or a closure inside one): handles
	// crossing into an opaque visitor call there are escape events. locals
	// holds the variables bound to function literals, whose calls invoke
	// visible code and are exempt.
	exposed bool
	locals  map[types.Object]bool

	// First-retire position per var, for diagnostics.
	retireAt []token.Pos

	factCache map[*types.Func]*Summary // imported cross-package summaries
}

// prepare collects the tracked variables and per-block events for one
// function body. It returns nil when the body tracks no handles at all.
func prepare(pass *analysis.Pass, sums map[*types.Func]*Summary, g *cfg.CFG, body *ast.BlockStmt, sig *types.Signature, exposed bool, locals map[types.Object]bool) *funcAnalysis {
	fa := &funcAnalysis{
		pass:      pass,
		sums:      sums,
		g:         g,
		body:      body,
		vars:      make(map[varKey]int),
		deps:      make(map[types.Object][]int),
		excluded:  make(map[types.Object]bool),
		exKeys:    make(map[varKey]bool),
		factCache: make(map[*types.Func]*Summary),
		exposed:   exposed,
		locals:    locals,
	}
	fa.collectExclusions(body)
	fa.collectVars(body)
	if len(fa.keys) == 0 {
		return nil
	}
	fa.paramIdx = make([]int, len(fa.keys))
	for i := range fa.paramIdx {
		fa.paramIdx[i] = -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if v, ok := fa.vars[varKey{sig.Params().At(i), ""}]; ok {
			fa.paramIdx[v] = i
		}
	}
	fa.retireAt = make([]token.Pos, len(fa.keys))
	fa.nparams = sig.Params().Len()
	fa.events = make([][]event, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, n := range b.Nodes {
			fa.walk(n, &fa.events[i])
		}
	}
	return fa
}

// collectExclusions removes variables the flow model cannot speak for:
// address-taken handles, range-bound handles (rebound per iteration in the
// loop head, which the CFG represents only once), and outer handles
// assigned inside nested closures.
func (fa *funcAnalysis) collectExclusions(body ast.Node) {
	var inLit func(n ast.Node)
	inLit = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					fa.excludeTarget(l)
				}
			case *ast.RangeStmt:
				fa.excludeTarget(n.Key)
				fa.excludeTarget(n.Value)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					fa.excludeTarget(n.X)
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inLit(n.Body)
			return false
		case *ast.RangeStmt:
			fa.excludeTarget(n.Key)
			fa.excludeTarget(n.Value)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				fa.excludeTarget(n.X)
			}
		}
		return true
	})
}

func (fa *funcAnalysis) excludeTarget(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := fa.objOf(e); obj != nil && ibrlint.IsHandleType(obj.Type()) {
			fa.excluded[obj] = true
		}
	case *ast.SelectorExpr:
		if key, ok := fa.rawFieldKey(e); ok {
			fa.exKeys[key] = true
		}
	}
}

// collectVars indexes every handle-typed local, parameter, and depth-1
// field path used in the body (closures excluded — they are analyzed on
// their own).
func (fa *funcAnalysis) collectVars(body ast.Node) {
	add := func(key varKey) {
		if _, ok := fa.vars[key]; ok || len(fa.keys) >= maxVars {
			return
		}
		fa.vars[key] = len(fa.keys)
		fa.keys = append(fa.keys, key)
		if key.field != "" {
			fa.deps[key.obj] = append(fa.deps[key.obj], fa.vars[key])
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			obj := fa.objOf(n)
			if fa.trackableVar(obj) && ibrlint.IsHandleType(obj.Type()) {
				add(varKey{obj, ""})
			}
		case *ast.SelectorExpr:
			if key, ok := fa.fieldKey(n); ok {
				add(key)
			}
		}
		return true
	})
}

// trackableVar: a non-field, function-local (or parameter) variable that
// was not excluded. Package-level handles are shared state the
// function-local flow cannot own.
func (fa *funcAnalysis) trackableVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || fa.excluded[obj] {
		return false
	}
	return v.Parent() == nil || v.Parent() != fa.pass.Pkg.Scope()
}

func (fa *funcAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := fa.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return fa.pass.TypesInfo.Defs[id]
}

// rawFieldKey resolves sel to (base object, field name) when sel is a
// depth-1 field selection off a plain variable, without type filtering.
func (fa *funcAnalysis) rawFieldKey(sel *ast.SelectorExpr) (varKey, bool) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return varKey{}, false
	}
	obj := fa.objOf(id)
	if !fa.trackableVar(obj) {
		return varKey{}, false
	}
	f, ok := fa.objOf(sel.Sel).(*types.Var)
	if !ok || !f.IsField() {
		return varKey{}, false
	}
	return varKey{obj, sel.Sel.Name}, true
}

// fieldKey is rawFieldKey restricted to handle-typed fields that were not
// excluded by address-taking.
func (fa *funcAnalysis) fieldKey(sel *ast.SelectorExpr) (varKey, bool) {
	key, ok := fa.rawFieldKey(sel)
	if !ok || fa.exKeys[key] {
		return varKey{}, false
	}
	if t := fa.pass.TypesInfo.TypeOf(sel); t == nil || !ibrlint.IsHandleType(t) {
		return varKey{}, false
	}
	return key, true
}

func (fa *funcAnalysis) varIndex(key varKey) int {
	if v, ok := fa.vars[key]; ok {
		return v
	}
	return -1
}

func (fa *funcAnalysis) isParam(v int) bool { return fa.paramIdx[v] >= 0 }

// resolve maps an expression to the tracked variable holding its value, or
// -1. Handle-preserving methods (ClearMarks and friends) pass through to
// their receiver: the result names the same block.
func (fa *funcAnalysis) resolve(e ast.Expr) int {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fa.objOf(e); obj != nil {
			return fa.varIndex(varKey{obj, ""})
		}
	case *ast.SelectorExpr:
		if key, ok := fa.fieldKey(e); ok {
			return fa.varIndex(key)
		}
	case *ast.CallExpr:
		if ibrlint.MemCall(fa.pass.TypesInfo, e, preserveMethods...) != nil {
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				return fa.resolve(sel.X)
			}
		}
	}
	return -1
}

// genCall classifies calls that mint a tracked handle. Protected reads
// re-enter the flow at published-origin (fFromRead): the value is reachable
// from the structure and protected only by the op's reservation.
func (fa *funcAnalysis) genCall(call *ast.CallExpr) (bool, uint8) {
	info := fa.pass.TypesInfo
	if ibrlint.CoreCall(info, call, "Read", "ReadRoot", "Raw", "FetchOrMarks") != nil ||
		ibrlint.GuardCall(info, call, "Load", "LoadRoot") != nil {
		return true, fTracked | fFromRead
	}
	if ibrlint.CoreCall(info, call, "Alloc") != nil || ibrlint.MemCall(info, call, "Alloc") != nil ||
		ibrlint.GuardCall(info, call, "Alloc") != nil {
		return true, fTracked
	}
	return false, 0
}

// --- event extraction ------------------------------------------------------

// walk appends the life-cycle events of node n (one CFG block node) to evs
// in evaluation order. Closures, defers, and go statements are skipped: a
// deferred call runs at return, a closure is analyzed standalone.
func (fa *funcAnalysis) walk(n ast.Node, evs *[]event) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			fa.assign(n, evs)
			return false
		case *ast.ValueSpec:
			fa.valueSpec(n, evs)
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				fa.walk(r, evs)
				fa.escapeCheck(r, "returned", evs)
			}
			return false
		case *ast.SendStmt:
			fa.walk(n.Chan, evs)
			fa.walk(n.Value, evs)
			fa.escapeCheck(n.Value, "sent on a channel", evs)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				fa.walk(v, evs)
				fa.escapeCheck(v, "stored in a composite literal", evs)
			}
			return false
		case *ast.CallExpr:
			fa.callEvents(n, evs)
			return false
		}
		return true
	})
}

func (fa *funcAnalysis) escapeCheck(e ast.Expr, how string, evs *[]event) {
	if v := fa.resolve(e); v >= 0 {
		*evs = append(*evs, event{kind: evEscape, src: v, what: how, pos: e.Pos()})
	}
}

// assign lowers an assignment into publish/copy/kill events. The RHS is
// walked first (evaluation order), all sources are snapshotted before any
// destination changes (parallel-assignment semantics), and destinations
// that are not tracked but carry tracked field views (struct reassignment)
// kill — or field-wise copy — those views.
func (fa *funcAnalysis) assign(as *ast.AssignStmt, evs *[]event) {
	for _, r := range as.Rhs {
		fa.walk(r, evs)
	}
	for _, l := range as.Lhs {
		switch l := l.(type) {
		case *ast.Ident:
		case *ast.SelectorExpr:
			fa.walk(l.X, evs)
		default:
			fa.walk(l, evs)
		}
	}

	// Tuple assignment from one call: h, ok := pool.Alloc(tid).
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		var pairs []assignPair
		gen, genFl := false, uint8(0)
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			gen, genFl = fa.genCall(call)
		}
		for i, l := range as.Lhs {
			for _, p := range fa.lowerTarget(l, -1, i == 0 && gen, genFl, evs) {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) > 0 {
			*evs = append(*evs, event{kind: evAssign, pairs: pairs, pos: as.Pos()})
		}
		return
	}

	var pairs []assignPair
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		r := ast.Unparen(as.Rhs[i])
		src := -1
		gen, genFl := false, uint8(0)
		if call, ok := r.(*ast.CallExpr); ok {
			gen, genFl = fa.genCall(call)
		}
		if !gen {
			src = fa.resolve(r)
		}
		// A tracked handle stored through a pointer is published: the
		// block becomes reachable from wherever that pointer leads.
		if src >= 0 {
			if sel, ok := l.(*ast.SelectorExpr); ok {
				if t := fa.pass.TypesInfo.TypeOf(sel.X); t != nil {
					if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
						*evs = append(*evs, event{kind: evPublish, src: src, def: true, what: "a node-field store", pos: l.Pos()})
					}
				}
			} else if _, ok := l.(*ast.IndexExpr); ok {
				*evs = append(*evs, event{kind: evPublish, src: src, what: "an element store", pos: l.Pos()})
			} else if _, ok := l.(*ast.StarExpr); ok {
				*evs = append(*evs, event{kind: evPublish, src: src, def: true, what: "a pointer store", pos: l.Pos()})
			}
		}
		// Struct-to-struct copy: carry handle field views across.
		if lid, ok := l.(*ast.Ident); ok && fa.varIndex(varKey{fa.objOf(lid), ""}) < 0 {
			if lobj := fa.objOf(lid); lobj != nil && len(fa.deps[lobj]) > 0 {
				rid, rok := r.(*ast.Ident)
				var robj types.Object
				if rok {
					robj = fa.objOf(rid)
				}
				for _, d := range fa.deps[lobj] {
					fsrc := -1
					if robj != nil {
						fsrc = fa.varIndex(varKey{robj, fa.keys[d].field})
					}
					pairs = append(pairs, assignPair{dst: d, src: fsrc})
				}
				continue
			}
		}
		pairs = append(pairs, fa.lowerTarget(l, src, gen, genFl, evs)...)
	}
	if len(pairs) > 0 {
		*evs = append(*evs, event{kind: evAssign, pairs: pairs, pos: as.Pos()})
	}
}

// lowerTarget maps one assignment destination to its pairs (empty when the
// destination is untracked and carries no field views).
func (fa *funcAnalysis) lowerTarget(l ast.Expr, src int, gen bool, genFl uint8, evs *[]event) []assignPair {
	dst := -1
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if obj := fa.objOf(l); obj != nil {
			dst = fa.varIndex(varKey{obj, ""})
			if dst < 0 && len(fa.deps[obj]) > 0 {
				var pairs []assignPair
				for _, d := range fa.deps[obj] {
					pairs = append(pairs, assignPair{dst: d, src: -1})
				}
				return pairs
			}
		}
	case *ast.SelectorExpr:
		if key, ok := fa.fieldKey(l); ok {
			dst = fa.varIndex(key)
		}
	}
	if dst < 0 {
		return nil
	}
	return []assignPair{{dst: dst, src: src, gen: gen, genFlags: genFl}}
}

func (fa *funcAnalysis) valueSpec(spec *ast.ValueSpec, evs *[]event) {
	for _, v := range spec.Values {
		fa.walk(v, evs)
	}
	var pairs []assignPair
	for i, name := range spec.Names {
		dst := -1
		if obj := fa.objOf(name); obj != nil {
			dst = fa.varIndex(varKey{obj, ""})
		}
		if dst < 0 {
			continue
		}
		src := -1
		gen, genFl := false, uint8(0)
		if i < len(spec.Values) {
			r := ast.Unparen(spec.Values[i])
			if call, ok := r.(*ast.CallExpr); ok {
				gen, genFl = fa.genCall(call)
			}
			if !gen {
				src = fa.resolve(r)
			}
		}
		pairs = append(pairs, assignPair{dst: dst, src: src, gen: gen, genFlags: genFl})
	}
	if len(pairs) > 0 {
		*evs = append(*evs, event{kind: evAssign, pairs: pairs, pos: spec.Pos()})
	}
}

// callEvents classifies one call. Protocol calls become direct events; any
// other statically-resolved call applies its summary (local fixpoint result
// or imported fact) to its handle arguments.
func (fa *funcAnalysis) callEvents(call *ast.CallExpr, evs *[]event) {
	fa.walk(call.Fun, evs)
	for _, arg := range call.Args {
		fa.walk(arg, evs)
	}

	info := fa.pass.TypesInfo
	arg := func(i int) int {
		if i < len(call.Args) {
			return fa.resolve(call.Args[i])
		}
		return -1
	}
	emit := func(kind evKind, src int, def bool, what string) {
		if src >= 0 {
			*evs = append(*evs, event{kind: kind, src: src, def: def, what: what, pos: call.Pos()})
		}
	}

	switch {
	case ibrlint.CoreCall(info, call, "Retire") != nil:
		emit(evRetire, arg(1), false, "Retire")
	case ibrlint.GuardCall(info, call, "Retire") != nil:
		emit(evRetire, arg(0), false, "Guard.Retire")
	case ibrlint.MemCall(info, call, "Free") != nil || ibrlint.CoreCall(info, call, "Free") != nil:
		emit(evFree, arg(1), false, "Free")
	case ibrlint.GuardCall(info, call, "Discard") != nil:
		emit(evFree, arg(0), false, "Guard.Discard")
	case ibrlint.CoreCall(info, call, "Write") != nil:
		emit(evPublish, arg(2), true, "Write")
	case ibrlint.GuardCall(info, call, "Publish") != nil:
		emit(evPublish, arg(1), true, "Guard.Publish")
	case ibrlint.CoreCall(info, call, "CompareAndSwap") != nil:
		emit(evPublish, arg(3), false, "CompareAndSwap") // old value is compare-only
	case ibrlint.GuardCall(info, call, "CompareAndSwap") != nil:
		emit(evPublish, arg(2), false, "Guard.CompareAndSwap")
	case ibrlint.MemCall(info, call, "Get") != nil:
		emit(evUse, arg(0), false, "Pool.Get")
	case ibrlint.GuardCall(info, call, "Deref") != nil:
		emit(evUse, arg(0), false, "Guard.Deref")
	case isBuiltinAppend(info, call):
		for _, a := range call.Args[1:] {
			fa.escapeCheck(a, "appended to a slice", evs)
		}
	case fa.exposed && ibrlint.VisitorCall(info, call, fa.locals):
		// The range-callback idiom: a handle crossing into an opaque
		// visitor is gone from the bracket's custody (see evExpose).
		for _, a := range call.Args {
			if v := fa.resolve(a); v >= 0 {
				*evs = append(*evs, event{kind: evExpose, src: v, what: "exposed to a visitor callback", pos: call.Pos()})
			}
		}
	default:
		fn := fa.summaryCallee(call)
		if fn == nil {
			return
		}
		args := make([]int, len(call.Args))
		any := false
		for i := range call.Args {
			args[i] = arg(i)
			any = any || args[i] >= 0
		}
		if any {
			*evs = append(*evs, event{kind: evCall, fn: fn, args: args, pos: call.Pos()})
		}
	}
}

// summaryCallee resolves call to a summarizable function: statically known,
// outside the protocol substrate and the trusted facade, and not one of the
// value-preserving Handle helpers.
func (fa *funcAnalysis) summaryCallee(call *ast.CallExpr) *types.Func {
	fn, ok := typeutil.Callee(fa.pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	p := fn.Pkg().Path()
	if ibrlint.InBoundary(p) {
		return nil
	}
	return fn.Origin()
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// lookupSummary finds fn's effect summary: the package-local fixpoint map
// first, then the imported fact store.
func (fa *funcAnalysis) lookupSummary(fn *types.Func) *Summary {
	if fn.Pkg() == fa.pass.Pkg {
		return fa.sums[fn]
	}
	if s, ok := fa.factCache[fn]; ok {
		return s
	}
	var s Summary
	if fa.pass.ImportObjectFact(fn, &s) {
		fa.factCache[fn] = &s
		return &s
	}
	fa.factCache[fn] = nil
	return nil
}
