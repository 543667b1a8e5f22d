package bounds

import (
	"errors"

	"uplan/internal/cert"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// OracleName is the bounds oracle's registry key.
const OracleName = "bounds"

// KindBoundViolation classifies bounds findings: the engine's estimate
// exceeds the provable SPJU output-size bound.
const KindBoundViolation oracle.Kind = "bound-violation"

func init() { oracle.Register(TaskOracle{}, 3) }

// TaskOracle is the bounds oracle as an oracle.Oracle: generate random
// queries, derive each one's static SPJU bound from the catalog, and
// flag estimates above it. Queries without a provable bound, queries the
// engine cannot plan, and plans exposing no estimate are skipped — the
// no-estimate signal is CERT's finding, not this oracle's.
type TaskOracle struct{}

// Name implements oracle.Oracle.
func (TaskOracle) Name() string { return OracleName }

// Run implements oracle.Oracle.
func (TaskOracle) Run(tc *oracle.TaskContext) (oracle.TaskReport, error) {
	var rep oracle.TaskReport
	if tc.Decoder == nil {
		return rep, errors.New("bounds: task context has no plan decoder")
	}
	gen := sqlancer.New(tc.Seed)
	if err := oracle.ApplySchema(tc.Engine, gen, tc.Tables, tc.Rows); err != nil {
		return rep, err
	}
	tc.Loop(&rep, func() bool {
		query := gen.Query()
		v, err := Check(tc.Engine, tc.Decoder, query)
		switch {
		case err == nil:
			rep.Checks++
			if v != nil {
				tc.Emit(oracle.Finding{Kind: KindBoundViolation, Query: query, Detail: v.String()})
			}
		case errors.Is(err, ErrNoBound):
			rep.Skipped++
			rep.AddExtra("unbounded", 1)
		case errors.Is(err, cert.ErrUnplannable):
			rep.Skipped++
		case errors.Is(err, cert.ErrNoEstimate):
			// CERT already reports the no-estimate signal once per engine;
			// re-reporting it under a second oracle would double-count the
			// same defect. Unlike CERT the task keeps running: partial
			// exposure means other query shapes may still surface one.
			rep.Skipped++
			rep.AddExtra("no-estimate", 1)
		default:
			tc.Emit(oracle.Finding{Kind: oracle.KindPlan, Query: query, Detail: err.Error()})
		}
		return true
	})
	return rep, nil
}
