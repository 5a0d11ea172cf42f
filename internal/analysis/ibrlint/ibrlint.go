// Package ibrlint carries the shared machinery of the IBR protocol
// analyzers: package scoping against the protocol boundary, method-call
// resolution, and the //ibrlint:ignore escape hatch.
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
