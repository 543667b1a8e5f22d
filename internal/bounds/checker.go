package bounds

import (
	"errors"
	"fmt"

	"uplan/internal/cert"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/sql"
)

// ErrNoBound marks queries without a provable bound: shapes outside the
// SPJU fragment the parser or Bound understands, tables missing from
// the catalog, or tables without collected statistics. These are
// skip-worthy, like cert.ErrUnplannable — the oracle only reasons about
// queries it can bound.
var ErrNoBound = errors.New("bounds: no provable output-size bound")

// Slack is the absolute allowance on top of the relative cert.Tolerance.
// Planners floor estimates at one row (the minRows clamp), so an honest
// engine can report 1 where the provable bound is 0; an absolute unit of
// slack keeps that from flagging.
const Slack = 1.0

// Violation is one bounds finding: the engine's estimate exceeds the
// provable output-size bound.
type Violation struct {
	Engine string
	Query  string
	Bound  float64
	Est    float64
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] est(%q)=%.1f exceeds the provable SPJU bound %.1f",
		v.Engine, v.Query, v.Est, v.Bound)
}

// Check compares the engine's estimate for the query against the
// provable bound derived from the engine's own catalog; the estimate is
// read through cert.Estimate with the task's decoder. It returns a
// Violation when the estimate exceeds the bound beyond tolerance; an
// error matching ErrNoBound when the query cannot be bounded,
// cert.ErrUnplannable when the engine cannot plan it, and
// cert.ErrNoEstimate when the plan exposes no estimate. A nil error
// means the comparison was performed.
func Check(e *dbms.Engine, dec *oracle.Decoder, query string) (*Violation, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoBound, err)
	}
	bound, ok := Bound(stmt, e.DB.Schema)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBound, query)
	}
	est, err := cert.Estimate(e, dec, query)
	if err != nil {
		return nil, err
	}
	if est > bound*cert.Tolerance+Slack {
		return &Violation{Engine: e.Info.Name, Query: query, Bound: bound, Est: est}, nil
	}
	return nil, nil
}
