package tlp

import (
	"errors"

	"uplan/internal/exec"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// OracleName is TLP's registry key.
const OracleName = "tlp"

func init() { oracle.Register(TaskOracle{}, 2) }

// TaskOracle is the standalone TLP oracle loop as an oracle.Oracle:
// partition every random predicate into φ / NOT φ / φ IS NULL and
// compare the union with the unpartitioned result.
type TaskOracle struct{}

// Name implements oracle.Oracle.
func (TaskOracle) Name() string { return OracleName }

// Run implements oracle.Oracle.
func (TaskOracle) Run(tc *oracle.TaskContext) (oracle.TaskReport, error) {
	var rep oracle.TaskReport
	gen := sqlancer.New(tc.Seed)
	if err := oracle.ApplySchema(tc.Engine, gen, tc.Tables, tc.Rows); err != nil {
		return rep, err
	}
	tc.Loop(&rep, func() bool {
		table, pred := gen.PartitionableQuery()
		if !Probe(tc, table, pred) {
			rep.Skipped++
		}
		return true
	})
	return rep, nil
}

// Probe runs one TLP check of predicate over table on tc.Engine and
// emits what it finds through tc: an execution failure is a crash
// finding, a partition mismatch a logic finding. It returns false when
// the probe was skipped because the predicate names a column the table
// lacks — the generator guesses predicates against its own schema
// model, so that is expected noise, matched by the executor's sentinel
// rather than its message text.
func Probe(tc *oracle.TaskContext, table, predicate string) bool {
	v, err := Check(tc.Engine, table, predicate)
	switch {
	case errors.Is(err, exec.ErrUnresolvedColumn):
		return false
	case err != nil:
		tc.Emit(oracle.Finding{
			Kind: oracle.KindCrash, Query: "TLP " + table + " / " + predicate,
			Detail: err.Error(),
		})
	case v != nil:
		tc.Emit(oracle.Finding{
			Kind: oracle.KindLogic, Query: v.Base + " WHERE " + predicate,
			Detail: v.Detail,
		})
	}
	return true
}
