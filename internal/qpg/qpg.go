// Package qpg implements Query Plan Guidance (Ba & Rigger, ICSE 2023) in a
// DBMS-agnostic way on top of the unified query plan representation —
// application A.1 of the paper. QPG generates random queries, observes
// their *unified* plans, and mutates the database whenever no structurally
// new plan has been seen for a while, steering generation toward
// unexplored optimizer behaviour. Because plans are unified, one
// implementation covers every engine with a converter — the paper's
// headline engineering win.
package qpg

import (
	"errors"
	"fmt"

	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
	"uplan/internal/tlp"
)

// campaign is one QPG task: the engine under test, a pristine reference
// engine of the same dialect for differential checking, and the task's
// budgets, decoder and hooks, all read from the task context.
type campaign struct {
	tc        *oracle.TaskContext
	engine    *dbms.Engine
	reference *dbms.Engine
	gen       *sqlancer.Generator
	plans     *core.FingerprintSet
	// rep accumulates the task's counters; DistinctPlans is filled in
	// from plans when the loop ends.
	rep oracle.TaskReport
}

// newCampaign prepares a task against tc.Engine. The reference engine is
// created fresh with no injected defects.
func newCampaign(tc *oracle.TaskContext) (*campaign, error) {
	if tc.Decoder == nil {
		return nil, errors.New("qpg: task context has no plan decoder")
	}
	ref, err := dbms.New(tc.Engine.Info.Name)
	if err != nil {
		return nil, err
	}
	return &campaign{
		tc:        tc,
		engine:    tc.Engine,
		reference: ref,
		gen:       sqlancer.New(tc.Seed),
		// Structural fingerprints: operations plus configuration property
		// names, but not values — predicate constants and identifiers are
		// exactly the unstable information QPG must ignore, and excluding
		// them lets coverage plateau so the mutation feedback loop engages.
		// The set dedups on binary SHA-256 keys; Observe on an
		// already-seen plan (the common case once coverage plateaus) does
		// not allocate.
		plans: core.NewFingerprintSet(core.FingerprintOptions{
			IncludeConfiguration: true,
		}),
	}, nil
}

// setup creates the random schema on both engines.
func (c *campaign) setup() error {
	for _, stmt := range c.gen.SchemaSQL(c.tc.Tables, c.tc.Rows) {
		if err := c.applyBoth(stmt); err != nil {
			return err
		}
	}
	if err := c.engine.Analyze(); err != nil {
		return err
	}
	return c.reference.Analyze()
}

// applyBoth runs a mutating statement on target and reference.
func (c *campaign) applyBoth(stmt string) error {
	if _, err := c.engine.Execute(stmt); err != nil {
		return fmt.Errorf("qpg: target %q: %w", stmt, err)
	}
	if _, err := c.reference.Execute(stmt); err != nil {
		return fmt.Errorf("qpg: reference %q: %w", stmt, err)
	}
	return nil
}

// run spends the task's budget through the task context's Loop. Each
// step observes one query's unified plan, runs the differential and TLP
// oracles, and mutates the database when plan coverage stalls.
func (c *campaign) run() {
	stall := 0
	c.tc.Loop(&c.rep, func() bool {
		query := c.gen.Query()
		// 1. Plan guidance: observe the unified plan of the query.
		fresh, ok := c.observePlan(query)
		if ok {
			c.rep.PlanQueries++
		}
		if ok && fresh {
			c.rep.NewPlans++
			stall = 0
		} else {
			stall++
		}
		// 2. Oracles.
		c.checkDifferential(query)
		table, pred := c.gen.PartitionableQuery()
		tlp.Probe(c.tc, table, pred)
		// 3. Mutate the database when plan coverage stalls.
		if stall >= c.tc.StallThreshold {
			stall = 0
			c.mutate()
		}
		return true
	})
	c.rep.DistinctPlans = c.plans.Size()
}

// observePlan converts the engine's serialized plan to the unified
// representation and records its fingerprint. The second result is false
// when the plan could not be obtained.
func (c *campaign) observePlan(query string) (fresh, ok bool) {
	serialized, err := c.engine.Explain(query, c.engine.DefaultFormat())
	if err != nil {
		c.report(oracle.KindCrash, query, "EXPLAIN failed: "+err.Error())
		return false, false
	}
	// Arena-backed decode path: the plan lives in the task's reused arena
	// until the next observation resets it; the fingerprint set and the
	// shared plan set only read it.
	plan, err := c.tc.Decoder.Decode(serialized)
	if err != nil {
		c.report(oracle.KindPlan, query, err.Error())
		return false, false
	}
	c.tc.Observe(plan)
	return c.plans.Observe(plan), true
}

func (c *campaign) checkDifferential(query string) {
	got, err1 := c.engine.Execute(query)
	want, err2 := c.reference.Execute(query)
	switch {
	case err1 != nil && err2 == nil:
		c.report(oracle.KindCrash, query, err1.Error())
	case err1 == nil && err2 != nil:
		// The reference rejects a query the target accepts: just as
		// asymmetric as the inverse case, and exactly the class of signal
		// the differential oracle exists to surface.
		c.report(oracle.KindCrash, query, "reference failed where target succeeded: "+err2.Error())
	case err1 == nil && err2 == nil:
		if diff := tlp.CompareResults(got, want); diff != "" {
			c.report(oracle.KindLogic, query, "differs from reference: "+diff)
		}
	}
}

// mutate applies one database mutation to both engines; QPG's coverage
// feedback loop. Occasionally an update-swap statement is used, which also
// serves as a differential probe for update-path bugs.
func (c *campaign) mutate() {
	c.rep.Mutations++
	stmt := c.gen.Mutation()
	if c.rep.Mutations%2 == 0 {
		stmt = c.gen.UpdateWithSwap()
	}
	if err := c.applyBoth(stmt); err != nil {
		// Expected for e.g. unique violations; both engines stay in sync
		// only if both fail — verify by probing a cheap query.
		return
	}
	// Statistics refresh feeds the planner's estimates (the CERT-relevant
	// state): a failure here is oracle signal, not noise. An asymmetric
	// failure is exactly the class the differential oracle reports; a
	// symmetric one means neither engine has comparable post-mutation
	// state, so the divergence probe below would compare stale data.
	errT := c.engine.Analyze()
	errR := c.reference.Analyze()
	switch {
	case errT != nil && errR == nil:
		c.report(oracle.KindCrash, stmt, "ANALYZE after mutation failed on target: "+errT.Error())
		return
	case errT == nil && errR != nil:
		c.report(oracle.KindCrash, stmt, "reference ANALYZE failed where target succeeded: "+errR.Error())
		return
	case errT != nil && errR != nil:
		return
	}
	// After a mutation, update-path defects surface as data divergence.
	for _, t := range c.gen.Tables {
		q := "SELECT * FROM " + t.Name
		got, err1 := c.engine.Execute(q)
		want, err2 := c.reference.Execute(q)
		if err1 == nil && err2 == nil {
			if diff := tlp.CompareResults(got, want); diff != "" {
				c.report(oracle.KindLogic, stmt, "state divergence after mutation: "+diff)
			}
		}
	}
}

// report emits a finding through the task context as it occurs; the
// context dedups it and counts it toward the task's finding cap.
func (c *campaign) report(kind oracle.Kind, query, detail string) {
	c.tc.Emit(oracle.Finding{Kind: kind, Query: query, Detail: detail})
}
