// Package dbms implements the nine simulated database engines of the
// paper's case study (Table I). Every engine shares the SQL substrate
// (parser, planner, executor, storage) but has its own planning
// preferences, operator vocabulary, plan shaper, and native serialization
// formats — reproducing the observable differences in query plan
// representations that UPlan unifies.
package dbms

import (
	"fmt"
	"sort"
	"strings"

	"uplan/internal/datum"
	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/storage"
)

// Info is the Table I metadata of a studied DBMS.
type Info struct {
	Name      string // engine key: "postgresql", "mysql", …
	Display   string // "PostgreSQL"
	Version   string
	DataModel string
	Release   int // first release year
	Rank      int // db-engines rank (August 2024, per the paper)
}

// Infos lists the studied DBMSs in the paper's Table I order.
var Infos = []Info{
	{"influxdb", "InfluxDB", "2.7.0", "Time-series", 2013, 28},
	{"mongodb", "MongoDB", "6.0.5", "Document", 2009, 5},
	{"mysql", "MySQL", "8.0.32", "Relational", 1995, 2},
	{"neo4j", "Neo4j", "5.6.0", "Graph", 2007, 21},
	{"postgresql", "PostgreSQL", "14.7", "Relational", 1989, 4},
	{"sqlserver", "SQL Server", "16.0.4015.1", "Relational", 1989, 3},
	{"sqlite", "SQLite", "3.41.2", "Relational", 1990, 10},
	{"sparksql", "SparkSQL", "3.3.2", "Relational", 2014, 33},
	{"tidb", "TiDB", "6.5.1", "Relational", 2016, 79},
}

// Formats maps each engine to its officially supported serialization
// formats (paper Table III).
var Formats = map[string][]explain.Format{
	"influxdb":   {explain.FormatText},
	"mongodb":    {explain.FormatGraph, explain.FormatJSON},
	"mysql":      {explain.FormatGraph, explain.FormatText, explain.FormatJSON},
	"neo4j":      {explain.FormatGraph, explain.FormatText, explain.FormatJSON},
	"postgresql": {explain.FormatGraph, explain.FormatText, explain.FormatJSON, explain.FormatXML, explain.FormatYAML},
	"sqlserver":  {explain.FormatGraph, explain.FormatText, explain.FormatTable, explain.FormatXML},
	"sqlite":     {explain.FormatText},
	"sparksql":   {explain.FormatGraph, explain.FormatText},
	"tidb":       {explain.FormatGraph, explain.FormatTable, explain.FormatJSON},
}

// Names lists engine keys in Table I order.
func Names() []string {
	out := make([]string, len(Infos))
	for i, in := range Infos {
		out[i] = in.Name
	}
	return out
}

// InfoFor returns the Table I metadata for an engine key.
func InfoFor(name string) (Info, bool) {
	for _, in := range Infos {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// shaperFunc converts an engine-neutral physical plan into the engine's
// native operator tree, marking the nodes decorate attaches estimates and
// actuals to.
type shaperFunc func(e *Engine, op *planner.PhysOp) *explain.Plan

// Engine is one simulated DBMS instance with its own storage.
type Engine struct {
	Info   Info
	DB     *storage.DB
	Opts   planner.Options
	Quirks exec.Quirks

	shaper shaperFunc
	decor  decoration
	// marks are the current shaping's own and helper records.
	marks []mark
	// opSeq numbers operators across the engine's lifetime, reproducing
	// TiDB-style unstable operator identifiers (TableFullScan_17).
	opSeq int
	// queries counts executed statements (drives simulated timings).
	queries int
}

// New creates a fresh engine for the given key. Unknown keys fail.
func New(name string) (*Engine, error) {
	info, ok := InfoFor(name)
	if !ok {
		return nil, fmt.Errorf("dbms: unknown engine %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	e := &Engine{Info: info, DB: storage.NewDB()}
	switch name {
	case "postgresql":
		e.Opts = planner.Options{Join: planner.JoinPreferHash, Agg: planner.AggPreferHash}
		e.shaper = shapePostgres
		e.decor = decoration{estimates: costBlock, actuals: true, execTime: true}
	case "mysql":
		e.Opts = planner.Options{Join: planner.JoinPreferNL, PreferIndexProbes: true}
		e.shaper = shapeMySQL
		e.decor = decoration{estimates: costBlock, actuals: true}
	case "tidb":
		e.Opts = planner.Options{
			Join: planner.JoinAuto, FuseTopN: true,
			PreferIndexProbes: true, PreferIndexOnly: true,
		}
		e.shaper = shapeTiDB
		e.decor = decoration{estimates: tidbEstimates, actuals: true}
	case "sqlite":
		e.Opts = planner.Options{Join: planner.JoinPreferNL, PreferIndexProbes: true}
		e.shaper = shapeSQLite
	case "sqlserver":
		e.Opts = planner.Options{Join: planner.JoinAuto, Agg: planner.AggPreferSort}
		e.shaper = shapeSQLServer
		e.decor = decoration{estimates: costBlock, actuals: true}
	case "sparksql":
		e.Opts = planner.Options{Join: planner.JoinPreferMerge, Agg: planner.AggPreferHash}
		e.shaper = shapeSpark
	case "mongodb":
		e.Opts = planner.Options{Join: planner.JoinPreferNL, PreferIndexProbes: true}
		e.shaper = shapeMongo
		e.decor = decoration{actuals: true}
	case "neo4j":
		e.Opts = planner.Options{Join: planner.JoinPreferHash}
		e.shaper = shapeNeo4j
		e.decor = decoration{estimates: estRows, actuals: true}
	case "influxdb":
		e.Opts = planner.Options{}
		e.shaper = shapeInflux
	}
	return e, nil
}

// MustNew creates an engine or panics; for tests and static workloads.
func MustNew(name string) *Engine {
	e, err := New(name)
	if err != nil {
		panic(err)
	}
	return e
}

// planner returns a planner bound to the current schema state.
func (e *Engine) planner() *planner.Planner {
	return planner.New(e.DB.Schema, e.Opts)
}

// Execute parses, plans, and runs a statement, returning its result.
// EXPLAIN statements return the serialized plan as a single text column.
func (e *Engine) Execute(query string) (*exec.Result, error) {
	e.queries++
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		format := explain.FormatText
		if ex.Format != "" {
			format = explain.Format(ex.Format)
		}
		out, err := e.explainStmt(ex.Stmt, format, ex.Analyze)
		if err != nil {
			return nil, err
		}
		return textResult(out), nil
	}
	plan, err := e.planner().Plan(stmt)
	if err != nil {
		return nil, err
	}
	ng := exec.New(e.DB)
	ng.Quirks = e.Quirks
	return ng.Run(plan)
}

// textResult wraps a serialized text plan as a one-column result, one row
// per line. It runs once per EXPLAIN on the campaign loop, so lines are
// cut with an index cursor rather than a per-call strings.Split slice.
//
//uplan:hotpath
func textResult(s string) *exec.Result {
	s = strings.TrimRight(s, "\n")
	res := &exec.Result{Columns: []string{"QUERY PLAN"}}
	for start := 0; start <= len(s); {
		end := strings.IndexByte(s[start:], '\n')
		if end < 0 {
			res.Rows = append(res.Rows, []datum.D{datum.Str(s[start:])})
			break
		}
		res.Rows = append(res.Rows, []datum.D{datum.Str(s[start : start+end])})
		start += end + 1
	}
	return res
}

// statement parses query for the explain entry points, unwrapping an
// EXPLAIN prefix to the statement it explains.
func statement(query string) (sql.Statement, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		stmt = ex.Stmt
	}
	return stmt, nil
}

// Explain plans the statement and serializes its native plan.
func (e *Engine) Explain(query string, format explain.Format) (string, error) {
	e.queries++
	stmt, err := statement(query)
	if err != nil {
		return "", err
	}
	return e.explainStmt(stmt, format, false)
}

// ExplainAnalyze executes the statement and serializes its native plan
// with actual row counts and per-operator times.
func (e *Engine) ExplainAnalyze(query string, format explain.Format) (string, error) {
	e.queries++
	stmt, err := statement(query)
	if err != nil {
		return "", err
	}
	return e.explainStmt(stmt, format, true)
}

func (e *Engine) explainStmt(stmt sql.Statement, format explain.Format, analyze bool) (string, error) {
	plan, err := e.planner().Plan(stmt)
	if err != nil {
		return "", err
	}
	var stats map[*planner.PhysOp]*exec.OpStats
	if analyze {
		if stats, err = e.analyze(plan); err != nil {
			return "", err
		}
	}
	return explain.Serialize(e.shape(plan, stats), format)
}

// analyze runs plan and returns its per-operator actuals. It is the only
// caller of RunAnalyze: a plain Execute records no operator statistics.
func (e *Engine) analyze(plan *planner.PhysOp) (map[*planner.PhysOp]*exec.OpStats, error) {
	ng := exec.New(e.DB)
	ng.Quirks = e.Quirks
	if _, err := ng.RunAnalyze(plan); err != nil {
		return nil, err
	}
	return ng.Stats, nil
}

// shape builds the engine's native plan and decorates it. stats carries
// EXPLAIN ANALYZE actuals (nil for plain EXPLAIN).
func (e *Engine) shape(plan *planner.PhysOp, stats map[*planner.PhysOp]*exec.OpStats) *explain.Plan {
	native := e.shaper(e, plan)
	e.decorate(native, plan, stats)
	native.Dialect = e.Info.Name
	return native
}

// NativePlan shapes a statement's plan without serialization (used by
// tests and the benchmark harness).
func (e *Engine) NativePlan(query string) (*explain.Plan, error) {
	plan, err := e.PhysicalPlan(query)
	if err != nil {
		return nil, err
	}
	return e.shape(plan, nil), nil
}

// PhysicalPlan exposes the engine-neutral plan (used by CERT to read the
// optimizer's estimates directly in tests).
func (e *Engine) PhysicalPlan(query string) (*planner.PhysOp, error) {
	stmt, err := statement(query)
	if err != nil {
		return nil, err
	}
	return e.planner().Plan(stmt)
}

// Analyze refreshes optimizer statistics for all tables.
func (e *Engine) Analyze() error { return e.DB.AnalyzeAll() }

// Queries returns how many statements (Execute, Explain, ExplainAnalyze)
// the engine has processed over its lifetime — the denominator campaign
// throughput stats report against.
func (e *Engine) Queries() int { return e.queries }

// DefaultFormat returns the engine's primary structured format when it has
// one, else its first supported format.
func (e *Engine) DefaultFormat() explain.Format {
	formats := Formats[e.Info.Name]
	for _, f := range formats {
		if f == explain.FormatJSON {
			return f
		}
	}
	for _, f := range formats {
		if f != explain.FormatGraph {
			return f
		}
	}
	return formats[0]
}

// nextID advances the engine's operator counter.
func (e *Engine) nextID() int {
	e.opSeq++
	return e.opSeq
}

// planningTimeMS derives a deterministic pseudo planning time from the
// plan's cost and the engine's query counter.
func (e *Engine) planningTimeMS(p *planner.PhysOp) float64 {
	base := 0.05 + p.TotalCost/1e6
	jitter := float64((e.queries*7+e.opSeq*3)%13) / 100
	return round3(base + jitter)
}

func round3(f float64) float64 { return float64(int(f*1000+0.5)) / 1000 }
func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }

// SupportedFormats returns Table III's row for this engine.
func (e *Engine) SupportedFormats() []explain.Format {
	out := append([]explain.Format(nil), Formats[e.Info.Name]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
