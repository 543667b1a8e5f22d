// Package oracle defines the pluggable testing-oracle layer of the
// campaign orchestrator. The paper's core claim is that a unified plan
// representation lets multiple plan-based testing approaches share one
// substrate; this package is that claim turned into an interface: an
// oracle is anything that can run a seeded task against one engine and
// report findings and counters, and the orchestrator fans registered
// oracles out across engines without knowing any of them by name.
//
// QPG, CERT, TLP, and the cardinality-bounds oracle register themselves
// here (see internal/oracle/all for the aggregator import); adding a new
// technique is a leaf-package addition — implement Oracle, call Register
// from an init, and the campaign layer, the facade, and uplan-bench pick
// it up without edits.
package oracle

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/sqlancer"
)

// Kind classifies oracle findings.
type Kind string

// Finding kinds shared across the built-in oracles. An oracle may define
// further kinds (the bounds oracle's "bound-violation"); the campaign
// layer treats kinds as opaque labels.
const (
	KindLogic    Kind = "logic"      // wrong results (TLP or differential)
	KindCrash    Kind = "crash"      // execution error on generated input
	KindPlan     Kind = "plan-parse" // converter failed on the engine's plan
	KindEstimate Kind = "estimate"   // estimate monotonicity broken or unreadable
)

// Finding is one oracle discovery, scoped to the task that produced it.
// The orchestrator adds the (engine, oracle) identity when it records the
// finding, so implementations only describe what they found.
type Finding struct {
	Kind   Kind
	Query  string
	Detail string
}

// Counters is a task's generic statistics contribution. The fixed fields
// mirror the campaign's per-engine aggregates; Extra carries
// oracle-owned counters (keyed by a short stable name) that flow into
// the per-oracle stats and the durable checkpoint without the campaign
// layer knowing them.
type Counters struct {
	// Queries counts generated queries actually processed — less than the
	// budget when the task stopped early.
	Queries int
	// PlanQueries counts queries whose unified plan was observed.
	PlanQueries int
	// NewPlans counts plan structures the task had not seen before.
	NewPlans int
	// DistinctPlans is the task-local distinct plan structure count.
	DistinctPlans int
	// Mutations counts database mutations applied on coverage stalls.
	Mutations int
	// Checks counts oracle comparisons performed (CERT pairs, bounds
	// comparisons).
	Checks int
	// Skipped counts skip-worthy probes (unplannable pairs, predicates
	// naming absent columns, shapes without a provable bound).
	Skipped int
	// Extra holds oracle-owned counters; nil until AddExtra is called.
	Extra map[string]int
}

// Add folds another task's counters into c.
func (c *Counters) Add(o Counters) {
	c.Queries += o.Queries
	c.PlanQueries += o.PlanQueries
	c.NewPlans += o.NewPlans
	c.DistinctPlans += o.DistinctPlans
	c.Mutations += o.Mutations
	c.Checks += o.Checks
	c.Skipped += o.Skipped
	for name, n := range o.Extra {
		c.AddExtra(name, n)
	}
}

// AddExtra bumps an oracle-owned counter.
func (c *Counters) AddExtra(name string, n int) {
	if c.Extra == nil {
		c.Extra = map[string]int{}
	}
	c.Extra[name] += n
}

// TaskReport is what an oracle's Run returns: the task's counter
// contribution. Findings are not part of the report — they are emitted
// incrementally through TaskContext.Emit so the orchestrator journals
// them as they occur (a killed task keeps its partial findings durable).
type TaskReport struct {
	Counters
}

// TaskContext carries everything one (engine, oracle) task needs:
// the engine under test, the task's derived seed and budgets, the
// arena-backed plan decoder, and the orchestrator's hooks — the per-task
// dedup space (Report), the shared cross-engine plan set (ObservePlan),
// and the per-query cancellation/checkpoint tick. The three hooks double
// as the store journal: Report journals findings, ObservePlan journals
// fresh plan keys, and Tick writes periodic durable checkpoints.
type TaskContext struct {
	// Engine is the task's target engine instance, owned by the task.
	Engine *dbms.Engine
	// Seed is the task's derived generator seed (see DeriveSeed).
	Seed int64
	// Queries is the generated-query budget.
	Queries int
	// StallThreshold is QPG's mutation trigger.
	StallThreshold int
	// Tables and Rows size the task's generated schema.
	Tables int
	Rows   int
	// MaxFindings stops the task after it has contributed that many new
	// findings; 0 means no cap.
	MaxFindings int
	// Decoder is the task's arena-backed plan decoder for the engine's
	// dialect. May be nil for a standalone context; oracles that decode
	// plans should treat that as a hard setup error.
	Decoder *Decoder
	// Report records one finding in the orchestrator's per-task
	// deduplicating space and journals it, returning whether it was new.
	// Nil for standalone use (Emit then treats every finding as new).
	Report func(f Finding) bool
	// ObservePlan feeds the shared cross-engine plan set, returning
	// whether the plan's structure was globally new. The plan may be
	// arena-backed and about to be reset — implementations must not
	// retain it past the call.
	ObservePlan func(p *core.Plan) bool
	// Tick is consulted once per query with the queries-run count;
	// returning false stops the task at that boundary (cooperative
	// cancellation). It also drives periodic durable checkpoints.
	Tick func(queries int) bool

	// found counts the findings Emit reported as new, for MaxFindings.
	found int
}

// Emit reports a finding through the Report hook and returns whether it
// was new. With no hook attached every finding counts as new. New
// findings count toward MaxFindings.
func (tc *TaskContext) Emit(f Finding) bool {
	added := tc.Report == nil || tc.Report(f)
	if added {
		tc.found++
	}
	return added
}

// Loop is every oracle's query loop: it runs step once per query and
// counts rep.Queries. It stops when the budget is spent, when
// MaxFindings new findings have been emitted, when Alive says stop (the
// query is then not counted), or when step returns false (after the
// query is counted).
func (tc *TaskContext) Loop(rep *TaskReport, step func() bool) {
	for rep.Queries < tc.Queries {
		if tc.MaxFindings > 0 && tc.found >= tc.MaxFindings {
			return
		}
		if !tc.Alive(rep.Queries) {
			return
		}
		rep.Queries++
		if !step() {
			return
		}
	}
}

// Observe feeds a plan to the ObservePlan hook, if attached.
func (tc *TaskContext) Observe(p *core.Plan) bool {
	if tc.ObservePlan == nil {
		return false
	}
	return tc.ObservePlan(p)
}

// Alive reports whether the task should keep running; consulted once per
// query. With no Tick hook the task never stops early.
func (tc *TaskContext) Alive(queries int) bool {
	if tc.Tick == nil {
		return true
	}
	return tc.Tick(queries)
}

// Oracle is one DBMS-agnostic testing technique. Implementations are
// stateless values: all per-task state lives inside Run, so one
// registered Oracle serves any number of concurrent tasks.
type Oracle interface {
	// Name returns the oracle's stable registry key ("qpg", "cert", …) —
	// the identity used in seeds, finding dedup keys, config stamps, and
	// checkpoint records. Renaming an oracle invalidates stored runs.
	Name() string
	// Run executes one full task against tc.Engine: apply a schema, hand
	// a per-query step (generate from tc.Seed, emit findings through tc)
	// to tc.Loop, and return the counter report. The error is for hard failures (setup, engine
	// construction) only; per-query failures are findings or skips.
	Run(tc *TaskContext) (TaskReport, error)
}

// registry holds the registered oracles with an explicit canonical rank:
// init order across sibling packages is unspecified in Go, so ordering
// must come from the registration call, not its timing.
var (
	regMu    sync.RWMutex
	registry = map[string]Oracle{}
	ranks    = map[string]int{}
)

// Register installs an oracle under its Name with the given canonical
// rank (lower ranks sort first in Names). Meant to be called from init;
// a duplicate name is a wiring error and panics.
func Register(o Oracle, rank int) {
	regMu.Lock()
	defer regMu.Unlock()
	name := o.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("oracle: duplicate registration of %q", name))
	}
	registry[name] = o
	ranks[name] = rank
}

// Lookup returns the registered oracle for name.
func Lookup(name string) (Oracle, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	o, ok := registry[name]
	return o, ok
}

// Names lists the registered oracles in canonical order: ascending rank,
// ties broken by name.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		if ranks[out[i]] != ranks[out[j]] {
			return ranks[out[i]] < ranks[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// DeriveSeed mixes the top-level campaign seed with the task identity so
// every (engine, oracle) task gets an independent, reproducible
// generator stream regardless of which worker runs it or when.
func DeriveSeed(seed int64, engine, oracle string) int64 {
	h := fnv.New64a()
	h.Write([]byte(engine))
	h.Write([]byte{0})
	h.Write([]byte(oracle))
	return seed ^ int64(h.Sum64())
}

// ApplySchema loads the generator's random schema into the engine and
// refreshes its statistics — the shared setup step of every
// generator-driven oracle task.
func ApplySchema(e *dbms.Engine, gen *sqlancer.Generator, tables, rows int) error {
	for _, stmt := range gen.SchemaSQL(tables, rows) {
		if _, err := e.Execute(stmt); err != nil {
			return fmt.Errorf("schema %q: %w", stmt, err)
		}
	}
	return e.Analyze()
}

// Decoder converts serialized native plans into unified plans through a
// reused task-owned arena — the allocation-lean observation path of every
// oracle that reads plans (QPG, CERT, bounds).
type Decoder struct {
	conv  convert.Converter
	arena *core.PlanArena
}

// NewDecoder builds a decoder for the dialect using the shared cached
// converter (one registry per process, never a per-task rebuild).
func NewDecoder(dialect string) (*Decoder, error) {
	conv, err := convert.Cached(dialect)
	if err != nil {
		return nil, err
	}
	return &Decoder{conv: conv, arena: core.NewPlanArena()}, nil
}

// Decode converts one serialized plan. The returned plan lives in the
// decoder's reused arena and is valid only until the next Decode — Clone
// it to keep it.
func (d *Decoder) Decode(serialized string) (*core.Plan, error) {
	d.arena.Reset()
	return d.conv.ConvertIn(serialized, d.arena)
}
