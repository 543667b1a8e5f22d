// Package oracleerr exercises the oracleerr analyzer: dropped oracle
// signal, message-text error matching, and worker-closure discards. The
// first two functions are the exact bug shapes a prior sweep fixed in
// the campaign oracles.
package oracleerr

import (
	"strings"

	"uplan/internal/bounds"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/pipeline"
	"uplan/internal/sqlancer"
	"uplan/internal/store"
)

// dropAnalyze is the post-mutation ANALYZE drop: a failed statistics
// refresh is itself a finding, silently discarded here.
func dropAnalyze(e *dbms.Engine) {
	_ = e.Analyze() // want `error result of dbms\.Engine\.Analyze assigned to _`
}

// bareAnalyze drops the same signal without even a blank assignment.
func bareAnalyze(e *dbms.Engine) {
	e.Analyze() // want `error result of dbms\.Engine\.Analyze discarded \(bare call\)`
}

// dropExecuteErr keeps the rows but discards the error that would have
// distinguished a crash finding from an empty result.
func dropExecuteErr(e *dbms.Engine, q string) int {
	res, _ := e.Execute(q) // want `error result of dbms\.Engine\.Execute assigned to _`
	if res == nil {
		return 0
	}
	return len(res.Rows)
}

// campaignWorkers swallows a non-deny-listed error inside a worker
// closure, where no caller can ever observe it.
func campaignWorkers(e *dbms.Engine, qs []string) {
	pipeline.ForEachChunked(len(qs), 2, 4,
		func() int { return 0 },
		func(s, lo, hi int) {
			for i := lo; i < hi; i++ {
				_ = runOne(e, qs[i]) // want `error result of oracleerr\.runOne discarded inside a worker closure`
			}
		},
		func(s int) {})
}

func runOne(e *dbms.Engine, q string) error {
	_, err := e.Execute(q)
	return err
}

// brittleFilter matches an error by message fragment where an errors.Is
// sentinel exists.
func brittleFilter(err error) bool {
	return strings.Contains(err.Error(), "unresolved column") // want `an errors\.Is sentinel exists: exec\.ErrUnresolvedColumn`
}

// prefixFilter is the same brittle class without a known sentinel.
func prefixFilter(err error) bool {
	return strings.HasPrefix(err.Error(), "exec:") // want `match errors with errors\.Is`
}

// compareText string-compares the rendered error.
func compareText(err error) bool {
	return err.Error() == "ghost table" // want `comparing err\.Error\(\) text`
}

// dropOracleRun dispatches a registered oracle but drops the hard-failure
// error: a task that never set up its schema reports as a clean zero.
func dropOracleRun(o oracle.Oracle, tc *oracle.TaskContext) oracle.TaskReport {
	rep, _ := o.Run(tc) // want `error result of oracle\.Oracle\.Run assigned to _`
	return rep
}

// dropSchemaAndDecode discards the shared setup and decode errors every
// generator-driven oracle depends on.
func dropSchemaAndDecode(e *dbms.Engine, gen *sqlancer.Generator, d *oracle.Decoder, s string) {
	oracle.ApplySchema(e, gen, 2, 12) // want `error result of oracle\.ApplySchema discarded \(bare call\)`
	_, _ = d.Decode(s)                // want `error result of oracle\.Decoder\.Decode assigned to _`
}

// dropBoundsCheck keeps the violation but discards the error that
// distinguishes an unbounded skip from a plan-conversion finding.
func dropBoundsCheck(c *bounds.Checker, q string) *bounds.Violation {
	v, _ := c.Check(q) // want `error result of bounds\.Checker\.Check assigned to _`
	return v
}

// brittleBoundFilter matches the bounds skip sentinel by message text.
func brittleBoundFilter(err error) bool {
	return strings.Contains(err.Error(), "no provable output-size bound") // want `an errors\.Is sentinel exists: bounds\.ErrNoBound`
}

// dropDurability discards the store's durability errors: the finding
// looks journaled but may not survive the next crash.
func dropDurability(s *store.Store, f store.Finding) {
	_, _ = s.AppendFinding(f)                                                             // want `error result of store\.Store\.AppendFinding assigned to _`
	_ = s.Checkpoint(store.TaskProgress{Engine: "postgresql", Oracle: "qpg", Done: true}) // want `error result of store\.Store\.Checkpoint assigned to _`
	s.Close()                                                                             // want `error result of store\.Store\.Close discarded \(bare call\)`
}
