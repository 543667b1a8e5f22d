package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape enforces the core.PlanArena ownership contract: a plan or
// node built inside an arena aliases the arena's slabs and is invalidated
// by the next Reset (or by the arena's return to a pool), so any such
// value that outlives the arena's lifecycle — returned from a function
// that Resets, pools or returns (convert.ReturnArena) the arena, stored
// into a long-lived field, sent on a channel, or built in a long-lived
// (field/captured) arena and handed out — must first be detached with
// Plan.Clone.
//
// Values are produced by ConvertIn (the convert.Converter method),
// convert.ConvertInto, and the arena's own NewNodeIn/AppendChildIn.
// Building in a caller-supplied arena parameter and returning the result
// is the converters' documented contract and is never flagged; neither is
// a one-shot local arena that is never Reset or pooled.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc: "flags arena-backed plan values escaping a PlanArena lifecycle " +
		"(Reset, pool-put, convert.ReturnArena, or long-lived worker arena) " +
		"without a Plan.Clone detach",
	Run: runArenaEscape,
}

func runArenaEscape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			newEscapeCheck(pass, fd).run()
		}
	}
	return nil
}

// arenaClass says how long the arena producing a value lives relative to
// the function under analysis.
type arenaClass int

const (
	arenaLocal    arenaClass = iota // declared in this function
	arenaParam                      // caller-owned: returning aliased values is the contract
	arenaLongLive                   // struct field, captured, or package-level: outlives the call
)

// taint tracks one location currently holding an undetached arena value.
type taint struct {
	arenaKey  string     // identity of the producing arena
	arenaName string     // source rendering, for diagnostics
	class     arenaClass // lifetime class of that arena
	pos       token.Pos  // where the value was produced or stored
	outside   bool       // location is a long-lived (non-local) l-value
	desc      string     // source rendering of the location
}

type escapeCheck struct {
	pass *Pass
	fn   *ast.FuncDecl

	// params holds every parameter/receiver object of the function and of
	// any function literal nested in it.
	params map[types.Object]bool
	// results holds the named result objects, for naked-return checks.
	results []types.Object
	// bounded marks arenas whose lifecycle visibly ends in this function:
	// a Reset() call, a pool Put, or convert.ReturnArena.
	bounded map[string]bool
	// taints maps location keys to their live taint.
	taints map[string]*taint
}

func newEscapeCheck(pass *Pass, fn *ast.FuncDecl) *escapeCheck {
	return &escapeCheck{
		pass:    pass,
		fn:      fn,
		params:  map[types.Object]bool{},
		bounded: map[string]bool{},
		taints:  map[string]*taint{},
	}
}

func (ec *escapeCheck) run() {
	ec.collectFrame()
	ec.collectLifecycle()
	ec.walk()
	// Whatever is still tainted at function end and lives in a long-lived
	// location has escaped the lifecycle for good.
	for _, t := range ec.taints {
		if t.outside && ec.escapes(t) {
			ec.report(t.pos, "arena-backed value stored in %s", t)
		}
	}
}

// escapes reports whether an undetached value of taint t outlives its
// arena: the arena is Reset or pooled somewhere in this function, or the
// arena itself is long-lived (worker/campaign field, captured variable).
func (ec *escapeCheck) escapes(t *taint) bool {
	return t.class == arenaLongLive || ec.bounded[t.arenaKey]
}

func (ec *escapeCheck) report(pos token.Pos, format string, t *taint) {
	how := "it is reused through arena " + t.arenaName
	if ec.bounded[t.arenaKey] {
		how = "arena " + t.arenaName + " is Reset or pooled in this function"
	}
	ec.pass.Reportf(pos, format+" without Plan.Clone detach; "+how, t.desc)
}

// collectFrame gathers parameter/receiver and named-result objects.
func (ec *escapeCheck) collectFrame() {
	addFields := func(fl *ast.FieldList, dst *[]types.Object) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := ec.pass.Info.Defs[name]; obj != nil {
					if dst != nil {
						*dst = append(*dst, obj)
					} else {
						ec.params[obj] = true
					}
				}
			}
		}
	}
	addFields(ec.fn.Recv, nil)
	addFields(ec.fn.Type.Params, nil)
	addFields(ec.fn.Type.Results, &ec.results)
	ast.Inspect(ec.fn.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			addFields(fl.Type.Params, nil)
		}
		return true
	})
}

// collectLifecycle finds Reset calls, pool Puts, and convert.ReturnArena
// calls (a Reset plus a Put on convert's shared pool), marking their arenas
// as lifecycle-bounded regardless of where in the function they appear
// (workers Reset before converting; pooled paths Reset after).
func (ec *escapeCheck) collectLifecycle() {
	ast.Inspect(ec.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if funcFullName(calleeFunc(ec.pass.Info, call)) == "uplan/internal/convert.ReturnArena" && len(call.Args) == 1 {
			key, _, _ := ec.arenaOf(call.Args[0])
			ec.bounded[key] = true
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Reset":
			if ec.typeOf(sel.X) != nil && isPlanArenaPtr(ec.typeOf(sel.X)) {
				key, _, _ := ec.arenaOf(sel.X)
				ec.bounded[key] = true
			}
		case "Put":
			for _, arg := range call.Args {
				if t := ec.typeOf(arg); t != nil && isPlanArenaPtr(t) {
					key, _, _ := ec.arenaOf(arg)
					ec.bounded[key] = true
				}
			}
		}
		return true
	})
}

func (ec *escapeCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := ec.pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// arenaOf classifies the arena-valued expression: a stable identity key,
// its source rendering, and its lifetime class.
func (ec *escapeCheck) arenaOf(e ast.Expr) (key, name string, class arenaClass) {
	e = ast.Unparen(e)
	name = types.ExprString(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := ec.pass.Info.ObjectOf(x)
		if obj == nil {
			return "a:" + name, name, arenaLocal
		}
		key = fmt.Sprintf("o:%p", obj)
		switch {
		case ec.params[obj]:
			return key, name, arenaParam
		case !ec.inFunc(obj.Pos()):
			return key, name, arenaLongLive // captured or package-level
		default:
			return key, name, arenaLocal
		}
	case *ast.SelectorExpr:
		// c.arena, w.arena: a struct field — long-lived by construction
		// (per-worker / per-campaign reuse is the only reason to hold an
		// arena in a field).
		return "a:" + ec.pathKey(x), name, arenaLongLive
	default:
		return "a:" + name, name, arenaLocal
	}
}

// inFunc reports whether pos falls within the function under analysis.
func (ec *escapeCheck) inFunc(pos token.Pos) bool {
	return ec.fn.Pos() <= pos && pos < ec.fn.End()
}

// pathKey renders an l-value chain (res.Plan, w.convs[k].conv) into a key
// that is stable for the same object path.
func (ec *escapeCheck) pathKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := ec.pass.Info.ObjectOf(x); obj != nil {
			return fmt.Sprintf("o:%p", obj)
		}
		return x.Name
	case *ast.SelectorExpr:
		return ec.pathKey(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return ec.pathKey(x.X) + "[]"
	default:
		return types.ExprString(e)
	}
}

// lvalue describes an assignment target.
type lvalue struct {
	key     string
	desc    string
	outside bool // long-lived: field of param/receiver/captured/global, or global
	ok      bool
}

func (ec *escapeCheck) lvalueOf(e ast.Expr) lvalue {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return lvalue{}
		}
		obj := ec.pass.Info.ObjectOf(x)
		if obj == nil {
			return lvalue{}
		}
		return lvalue{
			key:     fmt.Sprintf("o:%p", obj),
			desc:    x.Name,
			outside: !ec.inFunc(obj.Pos()),
			ok:      true,
		}
	case *ast.SelectorExpr:
		root := selRoot(x)
		if root == nil {
			return lvalue{}
		}
		if obj := ec.pass.Info.ObjectOf(root); obj != nil {
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return lvalue{key: ec.pathKey(x), desc: types.ExprString(x), outside: true, ok: true}
			}
			outside := ec.params[obj] || !ec.inFunc(obj.Pos())
			return lvalue{key: ec.pathKey(x), desc: types.ExprString(x), outside: outside, ok: true}
		}
		return lvalue{}
	case *ast.IndexExpr:
		lv := ec.lvalueOf(x.X)
		if !lv.ok {
			return lvalue{}
		}
		// Rebinding a parameter ident is local, but storing through a
		// parameter slice/map (out[i] = p) is caller-visible.
		outside := lv.outside
		if root := selRoot(x.X); root != nil {
			if obj := ec.pass.Info.ObjectOf(root); obj != nil && ec.params[obj] {
				outside = true
			}
		}
		return lvalue{key: lv.key + "[]", desc: lv.desc + "[...]", outside: outside, ok: true}
	default:
		return lvalue{}
	}
}

// selRoot returns the identifier at the base of a selector/index chain.
func selRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// producerArena returns the arena expression when call builds an
// arena-aliasing value: ConvertIn (method or interface), ConvertInto, or
// the arena's own NewNodeIn/AppendChildIn. A nil or absent arena argument
// means heap mode and produces nothing.
func (ec *escapeCheck) producerArena(call *ast.CallExpr) (ast.Expr, bool) {
	f := calleeFunc(ec.pass.Info, call)
	if f == nil {
		return nil, false
	}
	switch f.Name() {
	case "NewNodeIn", "AppendChildIn":
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		if t := ec.typeOf(sel.X); t != nil && isPlanArenaPtr(t) {
			return sel.X, true
		}
	case "ConvertIn":
		for _, arg := range call.Args {
			if t := ec.typeOf(arg); t != nil && isPlanArenaPtr(t) {
				return arg, true
			}
		}
	case "ConvertInto":
		if funcFullName(f) != "uplan/internal/convert.ConvertInto" {
			return nil, false
		}
		for _, arg := range call.Args {
			if t := ec.typeOf(arg); t != nil && isPlanArenaPtr(t) {
				return arg, true
			}
		}
	}
	return nil, false
}

// isCloneCall reports whether e is a call to a method named Clone — the
// detach operation.
func isCloneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}

// taintedIn returns a taint referenced by an identifier inside e
// (composite literals, plain idents, unary &) — the value-propagation
// forms; call arguments do not propagate (passing a plan to a reader is
// legal).
func (ec *escapeCheck) taintedIn(e ast.Expr) *taint {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := ec.pass.Info.ObjectOf(x); obj != nil {
			return ec.taints[fmt.Sprintf("o:%p", obj)]
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ec.taintedIn(x.X)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if t := ec.taintedIn(elt); t != nil {
				return t
			}
		}
	case *ast.CallExpr:
		// append(dst, x...) propagates: the arena nodes are now reachable
		// from dst.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range x.Args {
				if t := ec.taintedIn(arg); t != nil {
					return t
				}
			}
		}
	}
	return nil
}

// walk runs the ordered taint pass: ast.Inspect visits statements in
// source order, which stands in for control-flow order well enough for
// the lifecycle patterns this codebase uses (taint, maybe clone, then
// escape).
func (ec *escapeCheck) walk() {
	ast.Inspect(ec.fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			ec.assign(st)
		case *ast.ReturnStmt:
			ec.returns(st)
		case *ast.SendStmt:
			if t := ec.taintedIn(st.Value); t != nil && ec.escapes(t) {
				tc := *t
				tc.desc = types.ExprString(st.Value)
				ec.report(st.Value.Pos(), "arena-backed value %s sent on a channel", &tc)
			}
		}
		return true
	})
}

func (ec *escapeCheck) assign(st *ast.AssignStmt) {
	// Producer form: lhs0[, err] := producer(...).
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if arenaExpr, ok := ec.producerArena(call); ok {
				key, name, class := ec.arenaOf(arenaExpr)
				lv := ec.lvalueOf(st.Lhs[0])
				if lv.ok {
					ec.taints[lv.key] = &taint{
						arenaKey:  key,
						arenaName: name,
						class:     class,
						pos:       st.Pos(),
						outside:   lv.outside,
						desc:      lv.desc,
					}
				}
				return
			}
		}
	}
	// General form: pair up lhs/rhs when they align, otherwise treat each
	// lhs against the single rhs.
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		switch {
		case len(st.Rhs) == len(st.Lhs):
			rhs = st.Rhs[i]
		case len(st.Rhs) == 1:
			rhs = st.Rhs[0]
		default:
			continue
		}
		lv := ec.lvalueOf(lhs)
		if !lv.ok {
			continue
		}
		switch {
		case isCloneCall(rhs):
			// p = p.Clone(): the canonical detach.
			delete(ec.taints, lv.key)
		default:
			if t := ec.taintedIn(rhs); t != nil {
				nt := *t
				nt.pos = st.Pos()
				nt.outside = lv.outside
				nt.desc = lv.desc
				ec.taints[lv.key] = &nt
			} else {
				// Reassigned to an unrelated (or nil) value.
				delete(ec.taints, lv.key)
			}
		}
	}
}

func (ec *escapeCheck) returns(st *ast.ReturnStmt) {
	if len(st.Results) == 0 {
		// Naked return: named results escape.
		for _, obj := range ec.results {
			if t := ec.taints[fmt.Sprintf("o:%p", obj)]; t != nil && ec.escapes(t) {
				tc := *t
				tc.desc = obj.Name()
				ec.report(st.Pos(), "arena-backed value %s returned", &tc)
			}
		}
		return
	}
	for _, res := range st.Results {
		if t := ec.taintedIn(res); t != nil && ec.escapes(t) {
			tc := *t
			tc.desc = types.ExprString(res)
			ec.report(res.Pos(), "arena-backed value %s returned", &tc)
		}
	}
}
