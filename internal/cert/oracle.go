package cert

import (
	"errors"

	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// OracleName is CERT's registry key.
const OracleName = "cert"

func init() { oracle.Register(TaskOracle{}, 1) }

// TaskOracle is CERT's oracle.Oracle implementation: random
// base/restricted pairs whose estimates must shrink. Unplannable pairs
// are skipped; a readable-estimate failure is itself a finding (the
// engine planned the query but its plan exposes no estimate, or the
// plan did not convert).
type TaskOracle struct{}

// Name implements oracle.Oracle.
func (TaskOracle) Name() string { return OracleName }

// Run implements oracle.Oracle.
func (TaskOracle) Run(tc *oracle.TaskContext) (oracle.TaskReport, error) {
	var rep oracle.TaskReport
	if tc.Decoder == nil {
		return rep, errors.New("cert: task context has no plan decoder")
	}
	gen := sqlancer.New(tc.Seed)
	if err := oracle.ApplySchema(tc.Engine, gen, tc.Tables, tc.Rows); err != nil {
		return rep, err
	}
	tc.Loop(&rep, func() bool {
		base, restricted := gen.RestrictableQuery()
		v, err := CheckPair(tc.Engine, tc.Decoder, base, restricted)
		if err == nil {
			rep.Checks++
		}
		var f oracle.Finding
		switch {
		case errors.Is(err, ErrUnplannable):
			rep.Skipped++
			return true
		case errors.Is(err, ErrNoEstimate):
			f = oracle.Finding{
				Kind: oracle.KindEstimate, Query: base,
				Detail: "no cardinality estimate in plan",
			}
		case err != nil:
			f = oracle.Finding{Kind: oracle.KindPlan, Query: base, Detail: err.Error()}
		case v != nil:
			f = oracle.Finding{Kind: oracle.KindEstimate, Query: v.Restricted, Detail: v.String()}
		default:
			return true
		}
		// A plan format that exposes no estimate for one query exposes
		// none for any: once that finding is recorded, spending the rest
		// of the budget would only re-derive it at two EXPLAIN-plus-convert
		// round trips per pair.
		return tc.Emit(f) || !errors.Is(err, ErrNoEstimate)
	})
	return rep, nil
}
