// Package checktest is a minimal analysistest replacement for the ibrlint
// analyzers. The vendored x/tools subset has no go/packages (and hence no
// analysistest), so this harness loads golden packages from
// internal/analysis/testdata/src with go/parser + go/types directly, runs an
// analyzer (and its transitive Requires) over them, and matches the reported
// diagnostics against analysistest-style expectation comments:
//
//	p.Free(tid, h) // want "raw Pool.Free bypasses the guard facade"
//
// An expectation matches diagnostics on its own line. For diagnostics whose
// position IS a comment (the ibrdirective analyzer reports at the offending
// //ibrlint: comment, where no second line comment can sit), a line offset
// is allowed: `// want-1 "..."` anchors to the previous line.
//
// Stub packages under testdata/src reuse the real import-path suffixes
// (stub/internal/core, stub/internal/mem, stub/internal/guard, sync/atomic),
// which is all the analyzers key on — see ibrlint.PkgIs.
//
// Each analyzer runs over every package the golden package (transitively)
// imports, in dependency order, before the golden package itself, against a
// real in-memory fact store — so fact-producing analyzers (lifecycle) see
// their cross-package summaries exactly as they would under the unitchecker
// driver. Only the golden package's diagnostics are matched.
package checktest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// srcRoot is the testdata tree, relative to the analyzer package under test
// (go test runs each test binary in its own package directory).
const srcRoot = "../testdata/src"

// Run loads the package at pkgPath (relative to testdata/src), runs every
// analyzer in analyzers over it, and matches diagnostics against the
// package's want comments. Analyzers that share golden files (derefguard and
// ibrdirective over the escape-hatch package) are passed together so every
// expectation in the file set is owned by some analyzer in the run.
func Run(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	l := &loader{fset: token.NewFileSet(), root: srcRoot, pkgs: make(map[string]*pkgInfo)}
	pi, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}

	h := &harness{
		l:        l,
		facts:    make(map[factKey]analysis.Fact),
		pkgFacts: make(map[pkgFactKey]analysis.Fact),
		results:  make(map[resKey]any),
	}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		// Dependency packages first (in load order, which is import-closed),
		// so object facts are in the store before the golden package runs.
		for _, dep := range l.order {
			if dep == pkgPath {
				continue
			}
			if err := h.exec(a, l.pkgs[dep], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.exec(a, pi, &diags); err != nil {
			t.Fatal(err)
		}
	}

	match(t, l.fset, pi, diags)
}

type resKey struct {
	a   *analysis.Analyzer
	pkg *types.Package
}

type factKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

type harness struct {
	l         *loader
	facts     map[factKey]analysis.Fact
	pkgFacts  map[pkgFactKey]analysis.Fact
	results   map[resKey]any
	collected map[resKey]bool
}

// exec runs a (and its transitive Requires) over one package. Diagnostics
// are appended to diags when non-nil, else dropped.
func (h *harness) exec(a *analysis.Analyzer, pi *pkgInfo, diags *[]analysis.Diagnostic) error {
	key := resKey{a, pi.pkg}
	if _, done := h.results[key]; done {
		// Already ran (possibly collecting): nothing more to do.
		if diags == nil || h.collected[key] {
			return nil
		}
		// Ran earlier as a dependency without collection; diagnostics for
		// this package were dropped. Re-running would double-report facts,
		// so callers always collect the golden package last — this branch
		// exists only to fail loudly if that invariant breaks.
		return fmt.Errorf("%s: ran over %s before collection was requested", a.Name, pi.pkg.Path())
	}
	for _, req := range a.Requires {
		if err := h.exec(req, pi, nil); err != nil {
			return err
		}
	}
	resultOf := make(map[*analysis.Analyzer]any)
	for _, req := range a.Requires {
		resultOf[req] = h.results[resKey{req, pi.pkg}]
	}
	pass := h.newPass(a, pi, resultOf, func(d analysis.Diagnostic) {
		if diags != nil {
			*diags = append(*diags, d)
		}
	})
	res, err := a.Run(pass)
	if err != nil {
		return fmt.Errorf("%s over %s: %v", a.Name, pi.pkg.Path(), err)
	}
	h.results[key] = res
	if h.collected == nil {
		h.collected = make(map[resKey]bool)
	}
	h.collected[key] = diags != nil
	return nil
}

// newPass assembles an analysis.Pass by hand, with fact functions backed by
// the harness's in-memory store.
func (h *harness) newPass(a *analysis.Analyzer, pi *pkgInfo, resultOf map[*analysis.Analyzer]any, report func(analysis.Diagnostic)) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:   a,
		Fset:       h.l.fset,
		Files:      pi.files,
		Pkg:        pi.pkg,
		TypesInfo:  pi.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report:     report,
		ReadFile:   os.ReadFile,
		ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
			f, ok := h.facts[factKey{obj, reflect.TypeOf(fact)}]
			if !ok {
				return false
			}
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			h.facts[factKey{obj, reflect.TypeOf(fact)}] = fact
		},
		ImportPackageFact: func(pkg *types.Package, fact analysis.Fact) bool {
			f, ok := h.pkgFacts[pkgFactKey{pkg, reflect.TypeOf(fact)}]
			if !ok {
				return false
			}
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		},
		ExportPackageFact: func(fact analysis.Fact) {
			h.pkgFacts[pkgFactKey{pi.pkg, reflect.TypeOf(fact)}] = fact
		},
		AllObjectFacts: func() []analysis.ObjectFact {
			var out []analysis.ObjectFact
			for k, f := range h.facts {
				out = append(out, analysis.ObjectFact{Object: k.obj, Fact: f})
			}
			return out
		},
		AllPackageFacts: func() []analysis.PackageFact {
			var out []analysis.PackageFact
			for k, f := range h.pkgFacts {
				out = append(out, analysis.PackageFact{Package: k.pkg, Fact: f})
			}
			return out
		},
	}
}

// --- package loading -------------------------------------------------------

type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader parses and typechecks testdata packages, resolving imports to
// sibling directories under root. It doubles as the types.Importer, so stub
// packages can import each other (ds stubs import stub/internal/core). The
// order slice records completion order: a package's imports always precede
// it.
type loader struct {
	fset  *token.FileSet
	root  string
	pkgs  map[string]*pkgInfo
	order []string
}

func (l *loader) Import(path string) (*types.Package, error) {
	pi, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pi.pkg, nil
}

func (l *loader) load(path string) (*pkgInfo, error) {
	if path == "unsafe" {
		return &pkgInfo{pkg: types.Unsafe}, nil
	}
	if pi, ok := l.pkgs[path]; ok {
		return pi, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("import %q: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %q: %v", path, err)
	}
	pi := &pkgInfo{pkg: pkg, files: files, info: info}
	l.pkgs[path] = pi
	l.order = append(l.order, path)
	return pi, nil
}

// --- expectation matching --------------------------------------------------

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE finds a want clause: the keyword, an optional line offset, and one
// or more Go-quoted regexps.
var wantRE = regexp.MustCompile(`want([+-][0-9]+)?((?:\s+"(?:[^"\\]|\\.)*")+)`)

var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func match(t *testing.T, fset *token.FileSet, pi *pkgInfo, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pi.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				line := p.Line
				if m[1] != "" {
					off, _ := strconv.Atoi(m[1])
					line += off
				}
				for _, q := range quotedRE.FindAllString(m[2], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", p.Filename, p.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", p.Filename, p.Line, pat, err)
					}
					wants = append(wants, &expectation{file: p.Filename, line: line, re: re, raw: pat})
				}
			}
		}
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
