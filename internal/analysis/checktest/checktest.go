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
// (stub/internal/core, stub/internal/mem, stub/internal/guard), which is
// all the analyzers key on — see ibrlint.PkgIs. No analyzer in the suite
// exports facts, so each runs over the golden package alone; its imports
// are only typechecked.
package checktest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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
// ibrdirective over the escape-hatch package) are passed together, in
// dependency order, so every expectation in the file set is owned by some
// analyzer in the run.
func Run(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	l := &loader{fset: token.NewFileSet(), root: srcRoot, pkgs: make(map[string]*pkgInfo)}
	pi, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	h := &harness{fset: l.fset, pi: pi, results: make(map[*analysis.Analyzer]any), collected: make(map[*analysis.Analyzer]bool)}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if err := h.exec(a, &diags); err != nil {
			t.Fatal(err)
		}
	}
	match(t, l.fset, pi, diags)
}

type harness struct {
	fset      *token.FileSet
	pi        *pkgInfo
	results   map[*analysis.Analyzer]any
	collected map[*analysis.Analyzer]bool
}

// exec runs a (and its transitive Requires) over the golden package.
// Diagnostics are appended to diags when non-nil, else dropped.
func (h *harness) exec(a *analysis.Analyzer, diags *[]analysis.Diagnostic) error {
	if _, done := h.results[a]; done {
		if diags != nil && !h.collected[a] {
			// It ran earlier as a dependency and its diagnostics were
			// dropped: the caller listed analyzers out of dependency order.
			return fmt.Errorf("%s: ran as a dependency before collection was requested", a.Name)
		}
		return nil
	}
	for _, req := range a.Requires {
		if err := h.exec(req, nil); err != nil {
			return err
		}
	}
	resultOf := make(map[*analysis.Analyzer]any)
	for _, req := range a.Requires {
		resultOf[req] = h.results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       h.fset,
		Files:      h.pi.files,
		Pkg:        h.pi.pkg,
		TypesInfo:  h.pi.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			if diags != nil {
				*diags = append(*diags, d)
			}
		},
		ReadFile: os.ReadFile,
	}
	res, err := a.Run(pass)
	if err != nil {
		return fmt.Errorf("%s over %s: %v", a.Name, h.pi.pkg.Path(), err)
	}
	h.results[a] = res
	h.collected[a] = diags != nil
	return nil
}

// --- package loading -------------------------------------------------------

type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader parses and typechecks testdata packages, resolving imports to
// sibling directories under root. It doubles as the types.Importer, so stub
// packages can import each other (ds stubs import stub/internal/core).
type loader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*pkgInfo
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
