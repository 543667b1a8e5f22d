// Package uplan is the public facade of the UPlan library, a Go
// implementation of "Towards a Unified Query Plan Representation" (Ba &
// Rigger, ICDE 2025). It re-exports the unified query plan representation
// so downstream users work against a stable surface while the
// implementation lives in internal packages.
//
// Quickstart:
//
//	plan, err := uplan.Convert("postgresql", explainOutput)
//	if err != nil { ... }
//	fmt.Println(plan.MarshalIndentedText())
//	fmt.Println(plan.Histogram())
//
// See the examples/ directory for complete programs covering the paper's
// three applications: DBMS-agnostic testing (QPG/CERT), visualization, and
// cross-DBMS benchmarking.
package uplan

import (
	"uplan/internal/campaign"
	"uplan/internal/codec"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/pipeline"
	"uplan/internal/store"
)

// Core representation types, re-exported.
type (
	// Plan is a unified query plan: an operation tree plus plan-level
	// properties.
	Plan = core.Plan
	// Node is one operation in the plan tree.
	Node = core.Node
	// Operation is a categorized operation identifier.
	Operation = core.Operation
	// Property is a categorized key/value pair.
	Property = core.Property
	// Value is a property value (string, number, boolean, or null).
	Value = core.Value
	// OperationCategory is one of the seven operation categories.
	OperationCategory = core.OperationCategory
	// PropertyCategory is one of the four property categories.
	PropertyCategory = core.PropertyCategory
	// Registry maps DBMS-specific names to unified names.
	Registry = core.Registry
	// Arena is a slab allocator for plan construction; see ConvertInto
	// and core.PlanArena for the ownership rules.
	Arena = core.PlanArena
	// FingerprintOptions controls structural plan fingerprints.
	FingerprintOptions = core.FingerprintOptions
	// FingerprintSet tracks observed plan fingerprints on binary keys —
	// QPG's "is this plan structurally new?" coverage map.
	FingerprintSet = core.FingerprintSet
	// CategoryHistogram counts operations per category.
	CategoryHistogram = core.CategoryHistogram
)

// NewFingerprintSet returns an empty fingerprint set using the given
// options. Observe on an already-seen plan is allocation-free; use
// Plan.Fingerprint64 for the fastest sketch-style hashing and
// Plan.FingerprintBytes / HexFingerprint for collision-resistant keys
// and display.
func NewFingerprintSet(opts FingerprintOptions) *FingerprintSet {
	return core.NewFingerprintSet(opts)
}

// HexFingerprint renders a binary plan fingerprint in the traditional
// 32-character hex form.
func HexFingerprint(fp [32]byte) string { return core.HexFingerprint(fp) }

// The seven operation categories (Section III-C of the paper).
const (
	Producer   = core.Producer
	Combinator = core.Combinator
	Join       = core.Join
	Folder     = core.Folder
	Projector  = core.Projector
	Executor   = core.Executor
	Consumer   = core.Consumer
)

// The four property categories (Section III-D of the paper).
const (
	Cardinality   = core.Cardinality
	Cost          = core.Cost
	Configuration = core.Configuration
	Status        = core.Status
)

// Convert parses a DBMS-native serialized plan (EXPLAIN output in any of
// the dialect's documented formats) into the unified representation.
// Supported dialects: postgresql, mysql, tidb, sqlite, mongodb, neo4j,
// sparksql, sqlserver, influxdb.
//
// Convert reuses a process-wide cached converter per dialect (backed by
// one shared default registry) rather than rebuilding the registry on
// every call, and is safe for concurrent use. For corpus-scale work, use
// ConvertBatch.
func Convert(dialect, serialized string) (*Plan, error) {
	c, err := convert.Cached(dialect)
	if err != nil {
		return nil, err
	}
	return c.Convert(serialized)
}

// Dialects lists the dialect keys Convert accepts, in sorted order.
func Dialects() []string { return convert.Dialects() }

// NewArena returns an empty plan-construction arena for use with
// ConvertInto. An arena batches a plan's many small allocations (nodes,
// property lists, child lists) into a few slabs and interns repeated
// strings; Reset recycles the slabs for the next plan, so a warmed-up
// arena converts with zero slab allocations. Arenas are not safe for
// concurrent use — give each goroutine its own. ConvertBatch's workers
// manage theirs: each borrows a pooled arena for the batch.
func NewArena() *Arena { return core.NewPlanArena() }

// ConvertInto is Convert with caller-managed memory: the plan is built
// inside ar and aliases its slabs. The plan stays valid until ar.Reset is
// called; to keep a plan beyond that, detach it first with Plan.Clone
// (which copies it into independent, compactly laid-out heap storage).
// Typical loop:
//
//	ar := uplan.NewArena()
//	for _, raw := range raws {
//		plan, err := uplan.ConvertInto("postgresql", raw, ar)
//		... // inspect plan, fingerprint it, keep plan.Clone() if needed
//		ar.Reset()
//	}
//
// A nil arena behaves exactly like Convert.
func ConvertInto(dialect, serialized string, ar *Arena) (*Plan, error) {
	return convert.ConvertInto(dialect, serialized, ar)
}

// Batch conversion types, re-exported from the pipeline subsystem.
type (
	// BatchRecord is one unit of batch work: a serialized plan tagged
	// with its dialect.
	BatchRecord = pipeline.Record
	// BatchResult pairs a record with its conversion outcome.
	BatchResult = pipeline.Result
	// BatchStats aggregates a batch run: totals, wall time, and
	// per-dialect throughput/errors/operation histograms.
	BatchStats = pipeline.Stats
	// DialectStats is one dialect's aggregate within BatchStats.
	DialectStats = pipeline.DialectStats
	// PipelineOptions configures ConvertBatch: worker count and an
	// optional cancellation context.
	PipelineOptions = pipeline.Options
)

// ConvertBatch converts a corpus of serialized plans concurrently through
// a worker pool and returns per-record results (indexed like the input)
// plus aggregate statistics. Per-record failures — unknown dialects or
// malformed plans mixed into the batch — are reported in the matching
// BatchResult.Err and counted in the stats; they do not stop the batch.
//
//	records := []uplan.BatchRecord{{Dialect: "postgresql", Serialized: out}, ...}
//	results, stats := uplan.ConvertBatch(records, uplan.PipelineOptions{Workers: 8})
//	fmt.Println(stats) // per-dialect plans/sec, errors, operation counts
func ConvertBatch(records []BatchRecord, opts PipelineOptions) ([]BatchResult, BatchStats) {
	return pipeline.ConvertBatch(records, opts)
}

// Campaign orchestration types, re-exported from the campaign subsystem.
type (
	// CampaignOptions configures RunCampaigns: engines, oracles, query
	// budget, top-level seed, worker-pool bound, and an optional defect
	// injector.
	CampaignOptions = campaign.Options
	// CampaignResult is a campaign run's outcome: deduplicated findings in
	// canonical order plus merged per-engine statistics.
	CampaignResult = campaign.Result
	// CampaignFinding is one deduplicated campaign discovery.
	CampaignFinding = campaign.Finding
	// CampaignStats aggregates a campaign run in the style of BatchStats.
	CampaignStats = campaign.Stats
	// CampaignEngineStats is one engine's aggregate within CampaignStats.
	CampaignEngineStats = campaign.EngineStats
	// CampaignOracleStats is one oracle's aggregate within CampaignStats.
	CampaignOracleStats = campaign.OracleStats
	// CampaignOracle names a registered DBMS-agnostic testing technique
	// ("qpg", "cert", "tlp", "bounds"); CampaignOracles lists them.
	CampaignOracle = campaign.Oracle
	// CampaignEngine is one simulated engine instance — the value
	// CampaignOptions.Inject receives, so facade users can plant defects
	// (via its Quirks and Opts fields) without importing internal
	// packages.
	CampaignEngine = dbms.Engine
)

// Durable persistence types, re-exported from the store subsystem.
type (
	// PlanStore is the append-only, CRC-framed plan-and-finding log with
	// WAL-style recovery. Attach one to CampaignOptions.Store to journal a
	// campaign; reopen after a crash and set CampaignOptions.Resume to
	// continue it with a byte-identical outcome.
	PlanStore = store.Store
	// PlanStoreOptions tunes OpenStore (the log file opener).
	PlanStoreOptions = store.Options
	// PlanStoreRecovered is the state OpenStore rebuilt from the log:
	// plans, findings, per-task checkpoints, and what a torn tail cost.
	PlanStoreRecovered = store.Recovered
	// CampaignProgress is one durable per-task checkpoint record, as seen
	// by CampaignOptions.OnProgress.
	CampaignProgress = store.TaskProgress
)

// OpenStore opens (creating if needed) a durable plan-and-finding log
// directory, replaying and checksum-verifying its log and truncating any
// torn tail left by a crash.
//
//	log, err := uplan.OpenStore(dir, uplan.PlanStoreOptions{})
//	if err != nil { ... }
//	defer log.Close()
//	opts := uplan.DefaultCampaignOptions()
//	opts.Store = log
//	opts.Resume = !log.Recovered().Empty()
//	res, err := uplan.RunCampaigns(opts)
func OpenStore(dir string, opts PlanStoreOptions) (*PlanStore, error) {
	return store.Open(dir, opts)
}

// DefaultCampaignOptions returns the campaign budget the smoke runs use.
func DefaultCampaignOptions() CampaignOptions { return campaign.DefaultOptions() }

// CampaignOracles lists the registered testing oracles in canonical
// order — "qpg", "cert", "tlp", "bounds" for the built-in set. Use the
// names in CampaignOptions.Oracles to run a subset.
func CampaignOracles() []CampaignOracle { return campaign.AllOracles() }

// RunCampaigns fans every registered testing oracle — QPG, CERT, TLP,
// and the cardinality-bounds oracle by default — out across the
// simulated engines (all nine by default) on a bounded worker pool —
// the paper's application A.1 run fleet-wide. Findings are deduplicated
// in a race-safe cross-engine store and returned in canonical order; each
// (engine, oracle) task derives its generator seed from
// CampaignOptions.Seed deterministically, so the same seed produces a
// byte-identical finding set at any worker count.
//
//	res, err := uplan.RunCampaigns(uplan.DefaultCampaignOptions())
//	fmt.Println(res.Stats)      // per-engine queries/sec, new-plan rate, findings
//	for _, f := range res.Findings { fmt.Println(f) }
func RunCampaigns(opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(opts)
}

// EncodeBinary serializes a plan in the compact binary plan format — a
// deduplicated string table plus varint-framed depth-first node records
// (see internal/codec). Binary blobs are typically several times smaller
// than the JSON serialization and decode an order of magnitude faster.
func EncodeBinary(p *Plan) ([]byte, error) { return codec.Encode(p) }

// DecodeBinary decodes a binary plan blob produced by EncodeBinary,
// building the plan in ar (pass nil for plain heap allocation). A plan
// decoded into an arena follows the arena lifecycle: it is invalidated by
// ar.Reset unless detached with Plan.Clone first; its strings never alias
// the input buffer.
func DecodeBinary(data []byte, ar *Arena) (*Plan, error) {
	return codec.DecodeInto(data, ar)
}

// ParseText parses a unified plan from its text serialization (either the
// strict EBNF form or the indented human-readable form).
func ParseText(s string) (*Plan, error) { return core.ParseText(s) }

// ParseJSON parses a unified plan from its JSON serialization by
// core.ParseJSON's rules: a string value stays a string, an object or
// array value becomes a string of its exact source text, a number outside
// float64's range is an error, unknown keys are ignored, and a null leaves
// its field as it was. Unlike decoding the schema with encoding/json, keys
// match with exact case, anything but whitespace after the plan is an
// error, a repeated key replaces its earlier value instead of merging into
// it, and strings with invalid UTF-8 pass through instead of becoming
// U+FFFD.
func ParseJSON(data []byte) (*Plan, error) { return core.ParseJSON(data) }

// DefaultRegistry returns a fresh copy of the built-in naming registry
// covering the nine studied DBMSs. Each call builds a new instance, so
// extending it does NOT affect Convert or ConvertBatch — extend
// SharedRegistry to change what they recognize.
func DefaultRegistry() *Registry { return core.DefaultRegistry() }

// SharedRegistry returns the process-wide registry backing Convert's and
// ConvertBatch's cached converters. Extend it with
// AddOperation/AliasOperation to make every subsequent conversion
// recognize a new system's vocabulary (Section IV-B's extensibility
// contract, live). The registry is safe for concurrent use.
func SharedRegistry() *Registry { return convert.SharedRegistry() }
