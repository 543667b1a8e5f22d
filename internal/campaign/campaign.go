// Package campaign is the concurrent multi-engine testing orchestrator —
// the paper's headline application (A.1) run at fleet scale. Every
// registered testing oracle (QPG, CERT, TLP, the cardinality-bounds
// oracle — see internal/oracle) is implemented once over the unified
// plan representation; this package fans them out across every simulated
// engine on one bounded worker pool (the chunked-dispatch core shared
// with internal/pipeline), merges their findings into a race-safe
// deduplicating store, and aggregates per-engine and per-oracle
// statistics in the style of pipeline.Stats. The orchestrator knows no
// oracle by name: dispatch, stats, and seed derivation flow through the
// oracle registry, so a new technique is a leaf-package addition.
//
// Determinism contract: each (engine, oracle) task derives its generator
// seed from the top-level seed and its own identity, runs strictly
// sequentially inside one worker, and dedups findings on a key that
// embeds that identity — so the same top-level seed produces a
// byte-identical finding set at any worker count and under any
// scheduling.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"uplan/internal/dbms"
	"uplan/internal/oracle"
	// The built-in oracle implementations register themselves; the
	// orchestrator dispatches purely through the registry and this blank
	// import is what links the built-in set into any campaign binary.
	_ "uplan/internal/oracle/all"
	"uplan/internal/pipeline"
	pstore "uplan/internal/store"
)

// Oracle names one of the DBMS-agnostic testing techniques the
// orchestrator can run — an oracle registry key.
type Oracle = string

// The built-in oracles, in canonical order.
const (
	OracleQPG    Oracle = "qpg"    // plan-guided generation + differential oracle
	OracleCERT   Oracle = "cert"   // cardinality-estimate monotonicity
	OracleTLP    Oracle = "tlp"    // ternary logic partitioning
	OracleBounds Oracle = "bounds" // static SPJU output-size bounds
)

// AllOracles lists the registered oracles in canonical order.
func AllOracles() []Oracle { return oracle.Names() }

// Kind classifies campaign findings; see the oracle package for the
// shared kinds. Oracles may add their own (the bounds oracle's
// "bound-violation").
type Kind = oracle.Kind

// Finding kinds shared across the built-in oracles.
const (
	KindLogic    = oracle.KindLogic
	KindCrash    = oracle.KindCrash
	KindPlan     = oracle.KindPlan
	KindEstimate = oracle.KindEstimate
)

// Finding is one deduplicated campaign discovery.
type Finding struct {
	Engine string
	Oracle Oracle
	Kind   Kind
	Query  string
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s/%s/%s] %s — %s", f.Engine, f.Oracle, f.Kind, f.Query, f.Detail)
}

// Options tune a campaign run.
type Options struct {
	// Engines lists the engine keys to test. Empty means all nine studied
	// engines, in Table I order.
	Engines []string
	// Oracles lists the techniques to run per engine. Empty means every
	// registered oracle; unknown names are refused before any task runs.
	Oracles []Oracle
	// Queries is the generated-query budget per (engine, oracle) task.
	Queries int
	// StallThreshold is QPG's mutation trigger: queries without a new plan
	// fingerprint before the database is mutated.
	StallThreshold int
	// Tables and Rows size each task's generated schema.
	Tables int
	Rows   int
	// Seed is the top-level seed. Every task derives its own generator
	// seed from it deterministically, so the finding set depends only on
	// Seed (and the other option values), never on scheduling.
	Seed int64
	// Workers bounds the task pool. Non-positive means GOMAXPROCS; the
	// pool additionally clamps to the task count.
	Workers int
	// MaxFindings stops an individual task after it has contributed that
	// many findings; 0 means no cap.
	MaxFindings int
	// Inject, when set, is applied to every target engine right after
	// construction — the hook the Table V reproduction uses to plant
	// defects. QPG's pristine reference engines are never injected.
	Inject func(e *dbms.Engine)
	// Context, when non-nil, cancels the run cooperatively: workers stop
	// claiming tasks, in-flight tasks yield at their next query boundary,
	// and Run returns the partial result with ctx's error joined into the
	// returned error. With a Store attached, everything produced before
	// cancellation is journaled, so a later Resume run completes the
	// campaign with the byte-identical finding set of an uninterrupted one.
	Context context.Context
	// Store, when non-nil, is the durable plan-and-finding log the run
	// journals through: every new plan fingerprint, every new finding, and
	// a Done checkpoint per completed task. The caller owns the store
	// (Run syncs it but never closes it). Persistence failures are sticky
	// and joined into Run's error; the in-memory result stays complete.
	Store *pstore.Store
	// CheckpointEvery, when positive, additionally writes a durable
	// progress record every that-many queries inside each task, bounding
	// the data a crash can leave unsynced. Zero checkpoints only at task
	// completion. Either way the resume unit is the task: only Done
	// checkpoints let a resumed run skip work.
	CheckpointEvery int
	// Resume permits running against a non-empty Store: tasks with a
	// recovered Done checkpoint are skipped (their stats and findings come
	// from the log), the rest re-run from scratch. The options must match
	// the ones the store was created with (enforced via a config stamp
	// that includes the oracle set); Inject is the one exception — it
	// cannot be serialized, so a resumed run must supply the same
	// injection by hand. Without Resume, a non-empty store is an error:
	// refusing to silently mix two campaigns' journals is what keeps a log
	// attributable to one configuration.
	Resume bool
	// OnProgress, when set, is invoked after every durably written
	// checkpoint (periodic and Done alike), from whichever worker wrote
	// it. Tests and progress UIs hook it; it must be safe for concurrent
	// use.
	OnProgress func(p pstore.TaskProgress)
}

// DefaultOptions returns the budget the campaign smoke runs use.
func DefaultOptions() Options {
	return Options{
		Queries:        100,
		StallThreshold: 8,
		Tables:         2,
		Rows:           12,
		Seed:           1,
		MaxFindings:    10,
	}
}

func (o Options) withDefaults() Options {
	if len(o.Engines) == 0 {
		o.Engines = dbms.Names()
	}
	if len(o.Oracles) == 0 {
		o.Oracles = AllOracles()
	}
	if o.Queries <= 0 {
		o.Queries = 100
	}
	if o.StallThreshold <= 0 {
		o.StallThreshold = 8
	}
	if o.Tables <= 0 {
		o.Tables = 2
	}
	if o.Rows <= 0 {
		o.Rows = 12
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// validateOracles refuses unknown oracle names before any task runs —
// a typo in Options.Oracles should fail the whole run up front, not
// surface mid-campaign as one failed task per engine.
func (o Options) validateOracles() error {
	for _, name := range o.Oracles {
		if _, ok := oracle.Lookup(name); !ok {
			return fmt.Errorf("campaign: unknown oracle %q (registered: %s)",
				name, strings.Join(oracle.Names(), ", "))
		}
	}
	return nil
}

// metaBlob renders the determinism-relevant options as the store's config
// stamp. Must be called after withDefaults so the engine and oracle lists
// are concrete. Workers, CheckpointEvery, and the callbacks are excluded
// on purpose: they change scheduling and durability cadence, never the
// finding set, so they may differ between the original and resumed run.
func (o Options) metaBlob() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "uplan-campaign v1\nseed=%d queries=%d stall=%d tables=%d rows=%d maxfindings=%d\n",
		o.Seed, o.Queries, o.StallThreshold, o.Tables, o.Rows, o.MaxFindings)
	fmt.Fprintf(&b, "engines=%s\n", strings.Join(o.Engines, ","))
	fmt.Fprintf(&b, "oracles=%s\n", strings.Join(o.Oracles, ","))
	return []byte(b.String())
}

// Result is a campaign run's outcome: the deduplicated findings in
// canonical order plus the merged statistics.
type Result struct {
	Findings []Finding
	Stats    Stats
}

// task is one (engine, oracle) unit of fan-out work.
type task struct {
	engine string
	oracle Oracle
}

// taskDelta is one task's contribution to the merged stats, plus its
// hard failure (engine construction or schema setup), if any.
type taskDelta struct {
	rep        oracle.TaskReport
	statements int
	err        error
}

// Run fans the configured oracles out across the configured engines on a
// bounded worker pool and returns the merged result. Each task builds its
// own engine instance(s), so tasks share no mutable state except the
// race-safe finding store. Hard task failures (an unknown engine key, a
// schema that would not apply) are joined into the returned error; the
// Result still covers every task that ran.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validateOracles(); err != nil {
		return nil, err
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	tasks := make([]task, 0, len(opts.Engines)*len(opts.Oracles))
	for _, e := range opts.Engines {
		for _, o := range opts.Oracles {
			tasks = append(tasks, task{engine: e, oracle: o})
		}
	}

	st := newStore(opts.Store)
	// done maps tasks whose Done checkpoint was recovered; built before
	// the pool starts, read-only inside it.
	done := map[task]pstore.TaskProgress{}
	if opts.Store != nil {
		rec := opts.Store.Recovered()
		if !rec.Empty() && !opts.Resume {
			return nil, fmt.Errorf("campaign: store %q already holds a run; set Resume to continue it or point at a fresh directory", opts.Store.Dir())
		}
		// Stamp (or, on resume, validate) the configuration: AppendMeta is
		// idempotent on an identical blob and errors on a different one,
		// which is exactly the resume-under-changed-options guard — an
		// added or removed oracle changes the stamp's oracles= line and is
		// refused here.
		if err := opts.Store.AppendMeta(opts.metaBlob()); err != nil {
			return nil, fmt.Errorf("campaign: config stamp: %w", err)
		}
		if opts.Resume {
			for key, p := range rec.Progress {
				if p.Done {
					done[task{engine: key.Engine, oracle: key.Oracle}] = p
				}
			}
			// Every recovered plan key seeds the cross-engine set (union
			// semantics); findings seed only from finished tasks, so an
			// unfinished task re-runs in a clean per-task dedup space.
			st.seedPlans(rec.Plans)
			for _, f := range rec.Findings {
				if _, ok := done[task{engine: f.Engine, oracle: f.Oracle}]; ok {
					st.seedFinding(Finding{
						Engine: f.Engine, Oracle: f.Oracle,
						Kind: Kind(f.Kind), Query: f.Query, Detail: f.Detail,
					})
				}
			}
		}
	}

	start := time.Now()
	deltas := make([]taskDelta, len(tasks))
	// Chunk size 1: campaign tasks are seconds-long, so per-task claiming
	// keeps the pool balanced; the worker state the conversion pipeline
	// threads through the pool is unused here because every task owns its
	// engines outright. Cancellation stops claiming; the claimed task
	// yields at its next query boundary via its ticker.
	pipeline.ForEachChunkedCtx(ctx, len(tasks), opts.Workers, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, lo, hi int) {
			for i := lo; i < hi; i++ {
				if p, ok := done[tasks[i]]; ok {
					deltas[i] = deltaFromProgress(p)
					continue
				}
				deltas[i] = runTask(ctx, tasks[i], opts, st)
			}
		},
		func(struct{}) {})

	res := &Result{Stats: Stats{Engines: map[string]*EngineStats{}, Oracles: map[string]*OracleStats{}}}
	var errs []error
	for i, d := range deltas {
		res.Stats.fold(tasks[i], d)
		if d.err != nil {
			errs = append(errs, fmt.Errorf("campaign: %s/%s: %w", tasks[i].engine, tasks[i].oracle, d.err))
		}
	}
	res.Stats.Elapsed = time.Since(start)
	res.Stats.DistinctPlans = st.distinctPlans()
	res.Findings = st.sorted()
	res.Stats.Findings = len(res.Findings)
	for _, f := range res.Findings {
		es := res.Stats.engineStats(f.Engine)
		es.Findings++
		es.ByKind[f.Kind]++
		os := res.Stats.oracleStats(f.Oracle)
		os.Findings++
		os.ByKind[f.Kind]++
	}
	// Final durability barrier: whatever the tasks journaled is on disk
	// before Run returns, even when no checkpoint happened to land last.
	if opts.Store != nil {
		if err := opts.Store.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("campaign: store sync: %w", err))
		}
	}
	if err := st.persistErr(); err != nil {
		errs = append(errs, fmt.Errorf("campaign: persistence: %w", err))
	}
	if err := ctx.Err(); err != nil {
		// A cancelled run's result is valid but partial; surfacing ctx's
		// error lets callers distinguish it from a completed run.
		errs = append(errs, err)
	}
	return res, errors.Join(errs...)
}

// deltaFromProgress reconstructs a finished task's stats contribution
// from its recovered Done checkpoint, so a resumed run reports the exact
// numbers of an uninterrupted one without re-running the task.
func deltaFromProgress(p pstore.TaskProgress) taskDelta {
	var d taskDelta
	d.statements = p.Statements
	d.rep.Queries = p.Queries
	d.rep.PlanQueries = p.PlanQueries
	d.rep.NewPlans = p.NewPlans
	d.rep.DistinctPlans = p.DistinctPlans
	d.rep.Mutations = p.Mutations
	d.rep.Checks = p.Checks
	d.rep.Skipped = p.Skipped
	for name, n := range p.Extra {
		d.rep.AddExtra(name, n)
	}
	return d
}

// ticker threads a task's cooperative cancellation and periodic
// checkpointing through its oracle loop: consulted once per query, it
// stops the loop when the run's context is done and, at the configured
// cadence, journals a Done=false progress record so a crash loses at
// most CheckpointEvery queries of unsynced work.
type ticker struct {
	ctx        context.Context
	st         *store
	every      int
	prog       pstore.TaskProgress // task identity; counters zero except Queries
	last       int
	onProgress func(pstore.TaskProgress)
}

func (tk *ticker) tick(queries int) bool {
	if tk.ctx.Err() != nil {
		return false
	}
	if tk.every > 0 && queries-tk.last >= tk.every {
		tk.last = queries
		p := tk.prog
		p.Queries = queries
		if tk.st.checkpoint(p) && tk.onProgress != nil {
			tk.onProgress(p)
		}
	}
	return true
}

// deriveSeed mixes the top-level seed with the task identity so every
// task gets an independent, reproducible generator stream regardless of
// which worker runs it or when. The derivation lives in the oracle
// package; the campaign's contract is that it never changes.
func deriveSeed(seed int64, engine string, o Oracle) int64 {
	return oracle.DeriveSeed(seed, engine, o)
}

// runTask builds the task's target engine, resolves its oracle from the
// registry, and runs it with the orchestrator's hooks wired into the
// task context. A task that runs to completion (no hard failure, no
// cancellation) journals a Done checkpoint: the store appends the marker
// after the task's records in one log file, so a recovered Done proves
// the task's plans and findings survived too — the ordering resume
// correctness rests on.
func runTask(ctx context.Context, t task, opts Options, st *store) taskDelta {
	var d taskDelta
	impl, ok := oracle.Lookup(t.oracle)
	if !ok {
		// Unreachable after validateOracles; kept so a registry mutated
		// mid-run still fails loudly instead of panicking.
		d.err = fmt.Errorf("unknown oracle %q", t.oracle)
		return d
	}
	e, err := dbms.New(t.engine)
	if err != nil {
		d.err = err
		return d
	}
	if opts.Inject != nil {
		opts.Inject(e)
	}
	dec, err := oracle.NewDecoder(e.Info.Name)
	if err != nil {
		d.err = err
		return d
	}
	tk := &ticker{
		ctx:        ctx,
		st:         st,
		every:      opts.CheckpointEvery,
		prog:       pstore.TaskProgress{Engine: t.engine, Oracle: t.oracle},
		onProgress: opts.OnProgress,
	}
	tc := &oracle.TaskContext{
		Engine:         e,
		Seed:           deriveSeed(opts.Seed, t.engine, t.oracle),
		Queries:        opts.Queries,
		StallThreshold: opts.StallThreshold,
		Tables:         opts.Tables,
		Rows:           opts.Rows,
		MaxFindings:    opts.MaxFindings,
		Decoder:        dec,
		Report: func(f oracle.Finding) bool {
			return st.add(Finding{
				Engine: t.engine, Oracle: t.oracle,
				Kind: f.Kind, Query: f.Query, Detail: f.Detail,
			})
		},
		ObservePlan: st.observePlan,
		Tick:        tk.tick,
	}
	d.rep, d.err = impl.Run(tc)
	d.statements = e.Queries()
	if d.err == nil && ctx.Err() == nil {
		// Failed tasks never get a Done marker: a resumed run re-runs them
		// and resurfaces the error instead of silently forgetting it.
		p := pstore.TaskProgress{
			Engine: t.engine, Oracle: t.oracle, Done: true,
			Queries: d.rep.Queries, Statements: d.statements,
			PlanQueries: d.rep.PlanQueries, NewPlans: d.rep.NewPlans,
			DistinctPlans: d.rep.DistinctPlans, Mutations: d.rep.Mutations,
			Checks: d.rep.Checks, Skipped: d.rep.Skipped,
			Extra: d.rep.Extra,
		}
		if st.checkpoint(p) && opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}
	return d
}
