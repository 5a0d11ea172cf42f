package guard_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProtocolBoundary draws the IBR protocol boundary. Paper Fig. 1's
// contract (§2–§3) is that a block is touched only inside a StartOp/EndOp
// reservation, a detached block is retired rather than freed, and every
// birth epoch is stamped. internal/core and internal/mem implement that
// contract and this package wraps it; every other package of the module,
// and the benchmark module under bench/, reaches it only through the
// facade. So their non-test files name no protocol method, as a call, a
// method value or a method expression, outside the functions in allowed.
// Test files are exempt: tests deliberately stage quiescent inspections.
// What a structure does inside the facade is checked by running it
// (internal/ds's TestAdversary under the ibrdebug build).
func TestProtocolBoundary(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{root: root, fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*checked{}}

	t.Run("classes", func(t *testing.T) {
		core, mem := l.mustLoad(t, "ibr/internal/core").pkg, l.mustLoad(t, "ibr/internal/mem").pkg
		scheme := core.Scope().Lookup("Scheme").Type().Underlying().(*types.Interface)
		var got []string
		for i := range scheme.NumMethods() {
			got = append(got, scheme.Method(i).Name())
		}
		checkClasses(t, "core.Scheme", got, schemeMethods)
		pool := mem.Scope().Lookup("Pool").Type().(*types.Named)
		got = nil
		for i := range pool.NumMethods() {
			if m := pool.Method(i); m.Exported() {
				got = append(got, m.Name())
			}
		}
		checkClasses(t, "*mem.Pool", got, poolMethods)
	})

	t.Run("tree", func(t *testing.T) {
		found := map[string][]rawCall{}
		for _, path := range l.packages(t) {
			maps.Copy(found, rawCalls(l.fset, l.mustLoad(t, path)))
		}
		for _, fn := range slices.Sorted(maps.Keys(found)) {
			if _, ok := allowed[fn]; !ok {
				t.Errorf("%s calls the reservation protocol outside the guard facade:%s", fn, list(found[fn]))
			}
		}
		for _, fn := range slices.Sorted(maps.Keys(allowed)) {
			if _, ok := found[fn]; !ok {
				t.Errorf("allowed names %s, which makes no raw protocol call: drop its entry", fn)
			}
		}
	})

	t.Run("fixture", func(t *testing.T) {
		f, err := parser.ParseFile(l.fset, "fixture.go", fixture, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := l.check("ibr/fixture", []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		found := rawCalls(l.fset, p)
		var got []string
		for _, c := range found["ibr/fixture.protocol"] {
			got = append(got, c.method)
		}
		slices.Sort(got)
		var want []string
		for recv, table := range map[string]map[string]string{"Scheme": schemeMethods, "Pool": poolMethods} {
			for m, use := range table {
				if use != control {
					want = append(want, recv+"."+m)
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("fixture's protocol calls flagged as\n%v\nwant one per protocol method:\n%v", got, want)
		}
		if calls := found["ibr/fixture.legal"]; len(calls) > 0 {
			t.Errorf("fixture's legal calls flagged:%s", list(calls))
		}
	})
}

// control classes a method as legal anywhere: a control-block or stats
// read. Every other value in the method tables classes a protocol method
// and names the facade call that replaces it.
const control = ""

// schemeMethods classes every exported method of core.Scheme. A protocol
// name is protocol on every type in internal/core but Ptr, so on every
// concrete scheme too.
var schemeMethods = map[string]string{
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
	"ClearReservation": "none; allow the function with the reason the protocol still holds",

	"Name":             control,
	"Drain":            control,
	"Unreclaimed":      control,
	"Robust":           control,
	"ScanStats":        control,
	"Clock":            control,
	"Reservations":     control,
	"TakeAllocFailed":  control,
	"SetDrainPressure": control,
	"SetRetireSource":  control,
	"RetireSources":    control,
}

// poolMethods classes every exported method of *mem.Pool.
var poolMethods = map[string]string{
	"Get":            "Guard.Deref",
	"Alloc":          "Guard.Alloc",
	"Free":           "Guard.Retire, or Guard.Discard for a never-published block",
	"FreeBatches":    "Guard.Retire",
	"SetBirth":       "Guard.Alloc",
	"SetRetireEpoch": "Guard.Retire",
	"MarkRetired":    "Guard.Retire",

	"Threads":     control,
	"Capacity":    control,
	"Birth":       control,
	"RetireEpoch": control,
	"State":       control,
	"Stamp":       control,
	"Stats":       control,
	"CacheStats":  control,
	"Census":      control,
}

// allowed maps each function that calls the protocol raw to why Fig. 1's
// contract still holds there.
var allowed = map[string]string{
	"ibr/internal/harness.stall":               "injected stall: a bare StartOp/EndOp reservation that touches no node, so there is nothing for a Guard to protect",
	"ibr/internal/server.(*Engine).staller":    "injected stall: a bare StartOp/EndOp reservation that touches no node; a park revoked by the remediator's ClearReservation is not withdrawn twice",
	"ibr/internal/server.(*Engine).quarantine": "the staller is parked holding no node references, and st.mu keeps it from waking into the ClearReservation",
	"ibr/bench.(*libSys).stallOnce":            "the paper's preempted thread: a bare StartOp/EndOp reservation that touches no node",
}

// fixture names each protocol method once, in every form a selector takes
// (call, deferred call, method value, method expression), and each control
// method plus Ptr's two compare-only loads once.
const fixture = `package fixture

import (
	"ibr/internal/core"
	"ibr/internal/mem"
)

type node struct{ next core.Ptr }

func protocol(s core.Scheme, p *mem.Pool[node], h mem.Handle, ptr *core.Ptr) {
	start := s.StartOp
	start(0)
	defer s.EndOp(0)
	s.RestartOp(0)
	h = s.Alloc(0)
	s.Retire(0, h)
	s.Read(0, 0, ptr)
	s.ReadRoot(0, 0, ptr)
	s.Write(0, ptr, h)
	s.CompareAndSwap(0, ptr, h, h)
	core.Scheme.Unreserve(s, 0, 0)
	s.TransferSlot(0, 0, 1)
	s.ClearReservation(1)
	p.Get(h)
	p.Alloc(0)
	p.Free(0, h)
	p.FreeBatches(0, []mem.Handle{h})
	p.SetBirth(h, 1)
	p.SetRetireEpoch(h, 1)
	(*mem.Pool[node]).MarkRetired(p, h)
}

func legal(s core.Scheme, p *mem.Pool[node], h mem.Handle, ptr *core.Ptr) {
	_ = s.Name()
	s.Drain(0)
	_ = s.Unreclaimed(0)
	_ = s.Robust()
	_ = s.ScanStats()
	_ = s.Clock()
	_ = s.Reservations()
	_ = s.TakeAllocFailed(0)
	s.SetDrainPressure(true)
	s.SetRetireSource(0, core.SourceUser)
	_ = s.RetireSources()
	_ = p.Threads()
	_ = p.Capacity()
	_ = p.Birth(h)
	_ = p.RetireEpoch(h)
	_ = p.State(h)
	_ = p.Stamp(h)
	_ = p.Stats()
	_ = p.CacheStats()
	_ = p.Census()
	_ = ptr.Raw()
	_ = ptr.FetchOrMarks(1)
}
`

// checkClasses fails for a method of typ the table does not class, and
// for a table entry typ no longer has.
func checkClasses(t *testing.T, typ string, methods []string, table map[string]string) {
	for _, m := range methods {
		if _, ok := table[m]; !ok {
			t.Errorf("%s.%s has no class: list it in the boundary test's table as protocol or control", typ, m)
		}
	}
	for _, m := range slices.Sorted(maps.Keys(table)) {
		if !slices.Contains(methods, m) {
			t.Errorf("the boundary test's table classes %s.%s, which %s does not have", typ, m, typ)
		}
	}
}

// rawCall is one selector naming a protocol method.
type rawCall struct {
	pos    token.Position
	method string // e.g. "Scheme.StartOp"
	use    string // the facade call that replaces it
}

// rawCalls maps each function of p that names a protocol method to those
// selectors. A function is named as the runtime names it, e.g.
// "ibr/internal/server.(*Engine).quarantine"; package-level initializers
// belong to the package's "init".
func rawCalls(fset *token.FileSet, p *checked) map[string][]rawCall {
	out := map[string][]rawCall{}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fn := p.pkg.Path() + ".init"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = p.pkg.Path() + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := types.ExprString(fd.Recv.List[0].Type)
					if strings.HasPrefix(recv, "*") {
						recv = "(" + recv + ")"
					}
					fn = p.pkg.Path() + "." + recv + "." + fd.Name.Name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || p.info.Selections[sel] == nil {
					return true
				}
				if m, ok := p.info.Selections[sel].Obj().(*types.Func); ok {
					if recv, use := class(m); use != control {
						out[fn] = append(out[fn], rawCall{fset.Position(sel.Sel.Pos()), recv + "." + m.Name(), use})
					}
				}
				return true
			})
		}
	}
	return out
}

// class returns m's receiver type name and its class in the tables.
func class(m *types.Func) (recv, use string) {
	if m.Pkg() == nil {
		return "", control
	}
	r := m.Signature().Recv().Type()
	if p, ok := r.(*types.Pointer); ok {
		r = p.Elem()
	}
	if n, ok := r.(*types.Named); ok {
		recv = n.Obj().Name()
	}
	switch m.Pkg().Path() {
	case "ibr/internal/core":
		if recv != "Ptr" {
			return recv, schemeMethods[m.Name()]
		}
	case "ibr/internal/mem":
		if recv == "Pool" {
			return recv, poolMethods[m.Name()]
		}
	}
	return recv, control
}

func list(calls []rawCall) string {
	var b strings.Builder
	for _, c := range calls {
		fmt.Fprintf(&b, "\n\t%s: %s (use %s)", c.pos, c.method, c.use)
	}
	return b.String()
}

// loader type-checks the module's packages from source, each once: every
// import of a path must resolve to the same *types.Package, or type
// identity breaks. The standard library comes from export data.
type loader struct {
	root string // the module's root directory
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

// checked is one type-checked package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// packages walks the module for the packages outside the boundary: every
// directory with Go files, bench/ included (it is ibr/bench, built against
// the root's sources as its replace directive says), but not testdata,
// hidden directories or any other nested module, such as a Go cache or
// GOPATH under the checkout. It fails if a non-test file there is left out
// of the default build, since only that build is checked.
func (l *loader) packages(t *testing.T) []string {
	var paths []string
	err := filepath.WalkDir(l.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		if rel != "." {
			_, statErr := os.Stat(filepath.Join(dir, "go.mod"))
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || (statErr == nil && rel != "bench") {
				return filepath.SkipDir
			}
		}
		path := "ibr"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		switch path {
		case "ibr/internal/core", "ibr/internal/mem", "ibr/internal/guard":
			return nil
		}
		bp, err := build.ImportDir(dir, 0)
		for _, name := range bp.IgnoredGoFiles {
			if !strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s is outside the boundary but not in the default build, the only one this test checks", filepath.Join(rel, name))
			}
		}
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != "ibr" && !strings.HasPrefix(path, "ibr/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *loader) mustLoad(t *testing.T, path string) *checked {
	t.Helper()
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// load parses and checks a module package's non-test files, once.
func (l *loader) load(path string) (*checked, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "ibr"))), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// check type-checks files as the package path, recording its selections.
func (l *loader) check(path string, files []*ast.File) (*checked, error) {
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &checked{pkg, files, info}, nil
}
