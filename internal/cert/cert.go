// Package cert implements Cardinality Estimation Restriction Testing (Ba &
// Rigger, ICSE 2024) in a DBMS-agnostic way over the unified query plan
// representation — the second half of the paper's application A.1. CERT's
// oracle: a query that is strictly more restrictive than another must not
// have a larger estimated cardinality. The estimate is read from the
// unified plan (Cardinality category), so one implementation serves every
// engine with a converter.
//
// Estimate and CheckPair are free functions over an engine and the
// task's plan decoder; TaskOracle.Run applies the task's schema and hands
// one base/restricted pair per query to the task context's Loop.
package cert

import (
	"errors"
	"fmt"

	"uplan/internal/dbms"
	"uplan/internal/oracle"
)

// ErrUnplannable marks pairs the engine could not plan at all (parse or
// planning failure on the generated query). These are skip-worthy: CERT
// only reasons about successfully planned queries, and a generator
// routinely produces statements a dialect rejects.
var ErrUnplannable = errors.New("cert: query not plannable")

// ErrNoEstimate flags a plan that converted cleanly but carries no root
// cardinality estimate. Unlike an unplannable query this IS a signal — the
// engine planned the query yet its serialized plan exposes no estimate the
// oracle (or a user) can read — so the oracle reports it instead of
// skipping it.
var ErrNoEstimate = errors.New("cert: no cardinality estimate in plan")

// Violation is one CERT finding: the restricted query got a larger
// estimate than its base query.
type Violation struct {
	Engine        string
	Base          string
	Restricted    string
	BaseEst       float64
	RestrictedEst float64
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] est(%q)=%.1f < est(%q)=%.1f — restriction increased the estimate",
		v.Engine, v.Base, v.BaseEst, v.Restricted, v.RestrictedEst)
}

// Tolerance is the relative slack CERT allows before flagging (estimates
// are noisy; the paper filters by expert triage).
const Tolerance = 1.01

// Estimate returns the optimizer's root cardinality estimate for the
// query on e, read from the unified plan that dec decodes. A query the
// engine cannot plan returns an error matching ErrUnplannable; a plan
// without a readable estimate returns one matching ErrNoEstimate. The
// plan is read for one property and discarded, so it lives in the
// decoder's reused arena.
func Estimate(e *dbms.Engine, dec *oracle.Decoder, query string) (float64, error) {
	serialized, err := e.Explain(query, e.DefaultFormat())
	if err != nil {
		return 0, fmt.Errorf("%w: %q: %v", ErrUnplannable, query, err)
	}
	plan, err := dec.Decode(serialized)
	if err != nil {
		return 0, fmt.Errorf("cert: %s plan for %q did not convert: %w",
			e.Info.Name, query, err)
	}
	est, ok := plan.RootCardinality()
	if !ok {
		return 0, fmt.Errorf("%w (%s, %q)", ErrNoEstimate, e.Info.Name, query)
	}
	return est, nil
}

// CheckPair compares the estimates of a base query and a more restrictive
// variant. It returns a Violation when monotonicity is broken; a nil
// error means the comparison was performed.
func CheckPair(e *dbms.Engine, dec *oracle.Decoder, base, restricted string) (*Violation, error) {
	baseEst, err := Estimate(e, dec, base)
	if err != nil {
		return nil, err
	}
	restEst, err := Estimate(e, dec, restricted)
	if err != nil {
		return nil, err
	}
	if restEst > baseEst*Tolerance {
		return &Violation{
			Engine:        e.Info.Name,
			Base:          base,
			Restricted:    restricted,
			BaseEst:       baseEst,
			RestrictedEst: restEst,
		}, nil
	}
	return nil, nil
}
