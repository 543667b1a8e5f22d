package lint

import (
	"go/ast"
	"go/types"
)

// corePkgPath is the package whose PlanArena lifecycle arenaescape
// enforces.
const corePkgPath = "uplan/internal/core"

// calleeFunc resolves a call expression to its static callee, when there
// is one (method values, interface methods, and generic functions all
// resolve; calls through function-typed variables do not).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcFullName renders a callee as the deny-list / match key format:
// "pkgpath.Func" for package functions, "pkgpath.Type.Method" for methods
// (the receiver's pointerness is erased; interface methods use the
// interface type's name).
func funcFullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return f.Name()
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() != nil {
			name := n.Obj().Name() + "." + f.Name()
			if n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + name
			}
			return name // universe types: error.Error
		}
		return f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorResultIndexes returns the positions of error-typed results in the
// call's result tuple (empty when the call returns no error).
func errorResultIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				out = append(out, i)
			}
		}
		return out
	default:
		if isErrorType(t) {
			return []int{0}
		}
	}
	return nil
}

// isPlanArenaPtr reports whether t is *core.PlanArena.
func isPlanArenaPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == corePkgPath && n.Obj().Name() == "PlanArena"
}
