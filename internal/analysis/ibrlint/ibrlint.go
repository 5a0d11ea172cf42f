// Package ibrlint carries the shared machinery of the IBR protocol
// analyzers: package scoping, call-site classification against the
// reservation API (core.Scheme, core.Ptr, mem.Pool), and the
// //ibrlint:ignore escape hatch.
//
// The analyzers match protocol calls by method name plus declaring-package
// suffix ("internal/core", "internal/mem") rather than by type identity, so
// the same analyzers run unchanged over this repository and over the golden
// packages under internal/analysis/testdata (whose stub packages reuse the
// real import-path suffixes).
package ibrlint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/types/typeutil"
)

// CorePkg, MemPkg, and GuardPkg are the import-path suffixes of the
// packages that define the reservation protocol surface: the raw scheme
// API, the allocator, and the Guarded[T] facade layered over both.
const (
	CorePkg  = "internal/core"
	MemPkg   = "internal/mem"
	GuardPkg = "internal/guard"
)

// PkgIs reports whether path is suffix or ends in "/"+suffix.
func PkgIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// InBoundary reports whether path lies inside the protocol boundary: the
// implementation (internal/core, internal/mem) or the internal/guard facade
// over it, including their external test packages ("..._test").
func InBoundary(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return PkgIs(path, CorePkg) || PkgIs(path, MemPkg) || PkgIs(path, GuardPkg)
}

// MethodCallee resolves call to the statically-known method it invokes
// (interface or concrete). It returns nil for non-methods, builtins, and
// dynamic calls through function values.
func MethodCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, ok := typeutil.Callee(info, call).(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return nil
	}
	return fn
}

// IsMethod reports whether fn is a method named name declared in a package
// whose import path ends in pkgSuffix.
func IsMethod(fn *types.Func, pkgSuffix string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || !PkgIs(fn.Pkg().Path(), pkgSuffix) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// CoreCall returns the invoked method if call invokes a method with one of
// the given names declared in internal/core (the Scheme interface, the
// concrete schemes, or Ptr), else nil.
func CoreCall(info *types.Info, call *ast.CallExpr, names ...string) *types.Func {
	if fn := MethodCallee(info, call); IsMethod(fn, CorePkg, names...) {
		return fn
	}
	return nil
}

// MemCall is CoreCall for methods declared in internal/mem (Pool).
func MemCall(info *types.Info, call *ast.CallExpr, names ...string) *types.Func {
	if fn := MethodCallee(info, call); IsMethod(fn, MemPkg, names...) {
		return fn
	}
	return nil
}

// GuardCall is CoreCall for methods declared in internal/guard (the
// Guarded[T]/Guard[T] facade).
func GuardCall(info *types.Info, call *ast.CallExpr, names ...string) *types.Func {
	if fn := MethodCallee(info, call); IsMethod(fn, GuardPkg, names...) {
		return fn
	}
	return nil
}

// IsHandleType reports whether t is mem.Handle (by name plus import-path
// suffix, so the testdata stub qualifies too).
func IsHandleType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Handle" && obj.Pkg() != nil && PkgIs(obj.Pkg().Path(), MemPkg)
}

// FuncLitBindings returns the variables in root that are ever bound to a
// function literal — the recursive-walk closure idiom (var walk func(...);
// walk = func(...){...}). A call through such a variable invokes code the
// analyzers can see (closures are analyzed standalone), so the visitor-
// callback rules exempt them.
func FuncLitBindings(info *types.Info, root ast.Node) map[types.Object]bool {
	bound := make(map[types.Object]bool)
	bind := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			bound[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			bound[obj] = true
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if _, ok := ast.Unparen(r).(*ast.FuncLit); ok && i < len(n.Lhs) {
					bind(n.Lhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, r := range n.Values {
				if _, ok := ast.Unparen(r).(*ast.FuncLit); ok && i < len(n.Names) {
					bind(n.Names[i])
				}
			}
		}
		return true
	})
	return bound
}

// VisitorCall reports whether call invokes an opaque function value — a
// caller-supplied visitor callback parameter, a function-typed field, or a
// stored function — as opposed to a statically known function or method, a
// builtin, a conversion, a literal invoked in place, or a closure bound in
// locals (see FuncLitBindings). The range-callback rules key on these:
// whatever crosses into such a call runs code the analyzers cannot see, so
// a handle argument may be retained past the reservation bracket.
func VisitorCall(info *types.Info, call *ast.CallExpr, locals map[types.Object]bool) bool {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return false // body visible at the call site, analyzed standalone
	}
	switch obj := typeutil.Callee(info, call).(type) {
	case *types.Var:
		if locals[obj] {
			return false
		}
		_, ok := obj.Type().Underlying().(*types.Signature)
		return ok
	case nil:
		// Not a named object: a conversion, a type expression, or a call
		// through a computed function value (f()(h), m[k](h)).
		tv, ok := info.Types[fun]
		if !ok || !tv.IsValue() {
			return false
		}
		_, ok = tv.Type.Underlying().(*types.Signature)
		return ok
	default:
		return false // *types.Func (static call) or *types.Builtin
	}
}
