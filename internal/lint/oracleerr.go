package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// OracleErrDeny is the deny-list of APIs whose error results carry
// testing-oracle signal and therefore must never be discarded. Entries are
// "pkgpath.Func" or "pkgpath.Type.Method" (receiver pointerness erased;
// interface methods use the interface name). The uplan-lint command can
// extend it with -oracleerr.deny.
var OracleErrDeny = []string{
	// Engine surface: every call either mutates engine state or produces
	// the result/plan an oracle compares.
	"uplan/internal/dbms.Engine.Execute",
	"uplan/internal/dbms.Engine.Explain",
	"uplan/internal/dbms.Engine.ExplainAnalyze",
	"uplan/internal/dbms.Engine.Analyze",
	// Oracles. Oracle.Run is the interface-level entry every registered
	// technique is dispatched through: its error is the task's hard
	// failure, and a caller that discards it reports a silently-empty task
	// as a clean one.
	"uplan/internal/oracle.Oracle.Run",
	"uplan/internal/oracle.ApplySchema",
	"uplan/internal/oracle.Decoder.Decode",
	"uplan/internal/cert.CheckPair",
	"uplan/internal/cert.Estimate",
	"uplan/internal/bounds.Check",
	"uplan/internal/tlp.Check",
	"uplan/internal/qpg.campaign.setup",
	// Execution and conversion: a dropped error here silently turns a
	// finding into a non-finding.
	"uplan/internal/exec.Executor.Run",
	"uplan/internal/convert.Converter.Convert",
	"uplan/internal/convert.Converter.ConvertIn",
	"uplan/internal/convert.ConvertInto",
	// Store durability surface: a dropped error here silently un-journals
	// a finding — the crash that follows loses data the caller believed
	// durable. The campaign captures these sticky and joins them into
	// Run's error; ad-hoc callers must do no less.
	"uplan/internal/store.Store.AppendPlan",
	"uplan/internal/store.Store.AppendFinding",
	"uplan/internal/store.Store.AppendMeta",
	"uplan/internal/store.Store.Checkpoint",
	"uplan/internal/store.Store.Sync",
	"uplan/internal/store.Store.Close",
	// Binary codec surface: a dropped Encode/DecodeInto error hands a
	// half-built or silently-wrong plan downstream (the differential
	// oracle then compares garbage).
	"uplan/internal/codec.Encode",
	"uplan/internal/codec.DecodeInto",
	// Service response-writing and shutdown surface: a dropped write error
	// means a client silently got half a response (the serve metrics count
	// these instead of ignoring them), and a dropped Shutdown/Close error
	// turns an abandoned drain into a fake-clean exit.
	"net/http.ResponseWriter.Write",
	"net/http.Server.Shutdown",
	"net/http.Server.Close",
	"net.Listener.Close",
}

// OracleErrWorkerAPIs lists worker-pool entry points: inside function
// literals passed to these, *any* discarded error is flagged (not just
// deny-listed callees), because a worker closure has no caller to hand
// the error to — signal dropped there is dropped for good.
var OracleErrWorkerAPIs = []string{
	"uplan/internal/pipeline.ForEachChunkedCtx",
	"uplan/internal/pipeline.Run",
}

// oracleErrSentinels maps known error-message fragments to the errors.Is
// sentinel that should be matched instead. Used to sharpen the
// message-text-matching diagnostic.
var oracleErrSentinels = map[string]string{
	"unresolved column":       "exec.ErrUnresolvedColumn",
	"not plannable":           "cert.ErrUnplannable",
	"no cardinality estimate": "cert.ErrNoEstimate",
	"exposes no estimate":     "cert.ErrNoEstimate",
	"no provable output-size": "bounds.ErrNoBound",
}

// OracleErr generalizes the dropped-oracle-signal bug class: discarded
// error results on the oracle/exec/engine deny-list, error matching by
// message text where an errors.Is sentinel exists, and errors swallowed
// inside worker-pool closures.
var OracleErr = &Analyzer{
	Name: "oracleerr",
	Doc: "flags discarded errors on oracle/exec/engine APIs, message-text " +
		"error matching, and errors swallowed in worker closures",
	Run: runOracleErr,
}

func runOracleErr(pass *Pass) error {
	deny := map[string]bool{}
	for _, d := range OracleErrDeny {
		deny[d] = true
	}
	workerAPIs := map[string]bool{}
	for _, w := range OracleErrWorkerAPIs {
		workerAPIs[w] = true
	}

	// workerRanges holds the source ranges of function literals passed to
	// worker-pool APIs; discards inside them are held to the strict rule.
	var workerRanges []posRange
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !workerAPIs[funcFullName(calleeFunc(pass.Info, call))] {
				return true
			}
			for _, arg := range call.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					workerRanges = append(workerRanges, posRange{fl.Pos(), fl.End()})
				}
			}
			return true
		})
	}
	inWorker := func(n ast.Node) bool {
		for _, r := range workerRanges {
			if r.start <= n.Pos() && n.Pos() < r.end {
				return true
			}
		}
		return false
	}

	denied := func(call *ast.CallExpr) (string, bool) {
		name := funcFullName(calleeFunc(pass.Info, call))
		return name, deny[name]
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				// Bare call statement: every result, error included, is
				// discarded.
				call, ok := ast.Unparen(st.X).(*ast.CallExpr)
				if !ok || len(errorResultIndexes(pass.Info, call)) == 0 {
					return true
				}
				if name, bad := denied(call); bad {
					pass.Reportf(st.Pos(), "error result of %s discarded (bare call); oracle signal is dropped", short(name))
				} else if inWorker(st) {
					pass.Reportf(st.Pos(), "error result of %s discarded inside a worker closure; record it in the task result or finding store", short(funcFullName(calleeFunc(pass.Info, call))))
				}
			case *ast.AssignStmt:
				checkAssignDiscard(pass, st, denied, inWorker)
			case *ast.CallExpr:
				checkTextMatch(pass, st)
			case *ast.BinaryExpr:
				checkErrorStringCompare(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkAssignDiscard flags assignments that discard a deny-listed call's
// error result through the blank identifier: `_ = e.Analyze()` and
// `v, _ := e.Execute(q)` alike.
func checkAssignDiscard(pass *Pass, st *ast.AssignStmt, denied func(*ast.CallExpr) (string, bool), inWorker func(ast.Node) bool) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	errIdxs := errorResultIndexes(pass.Info, call)
	if len(errIdxs) == 0 {
		return
	}
	name, bad := denied(call)
	strict := !bad && inWorker(st)
	if !bad && !strict {
		return
	}
	for _, idx := range errIdxs {
		var lhs ast.Expr
		switch {
		case len(st.Lhs) == 1 && idx == 0:
			lhs = st.Lhs[0]
		case idx < len(st.Lhs):
			lhs = st.Lhs[idx]
		default:
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if strict {
			name = funcFullName(calleeFunc(pass.Info, call))
			pass.Reportf(st.Pos(), "error result of %s discarded inside a worker closure; record it in the task result or finding store", short(name))
		} else {
			pass.Reportf(st.Pos(), "error result of %s assigned to _; oracle signal is dropped", short(name))
		}
	}
}

// checkTextMatch flags strings.Contains/HasPrefix/HasSuffix over
// err.Error(): message text is unstable and may match unrelated errors —
// the brittle filter class. When the literal matches a known sentinel's
// message the diagnostic names the errors.Is sentinel to use.
func checkTextMatch(pass *Pass, call *ast.CallExpr) {
	name := funcFullName(calleeFunc(pass.Info, call))
	switch name {
	case "strings.Contains", "strings.HasPrefix", "strings.HasSuffix":
	default:
		return
	}
	if len(call.Args) != 2 {
		return
	}
	for _, arg := range call.Args {
		if !isErrErrorCall(pass.Info, arg) {
			continue
		}
		msg := "match errors with errors.Is (or errors.As) instead of " + short(name) + " over err.Error(): message text is unstable and matches unrelated errors"
		if s := sentinelHint(pass, call); s != "" {
			msg += "; an errors.Is sentinel exists: " + s
		}
		pass.Reportf(call.Pos(), "%s", msg)
		return
	}
}

// checkErrorStringCompare flags `err.Error() == "..."` comparisons.
func checkErrorStringCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op.String() != "==" && be.Op.String() != "!=" {
		return
	}
	if !isErrErrorCall(pass.Info, be.X) && !isErrErrorCall(pass.Info, be.Y) {
		return
	}
	pass.Reportf(be.Pos(), "comparing err.Error() text; match errors with errors.Is (or errors.As) instead")
}

// isErrErrorCall reports whether e is a call to the Error method of an
// error value.
func isErrErrorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isErrorType(tv.Type)
}

// sentinelHint scans the call's string literals for fragments of known
// sentinel messages.
func sentinelHint(pass *Pass, call *ast.CallExpr) string {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok {
			continue
		}
		for frag, sentinel := range oracleErrSentinels {
			if strings.Contains(lit.Value, frag) {
				return sentinel
			}
		}
	}
	return ""
}

// short trims the module prefix off a deny-list name for readable
// diagnostics: "uplan/internal/dbms.Engine.Analyze" -> "dbms.Engine.Analyze".
func short(name string) string {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		return name[i+1:]
	}
	return name
}
