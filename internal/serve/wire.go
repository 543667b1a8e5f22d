package serve

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The wire types of the plan service's JSON API. The serveclient
// subpackage shares them, so the request/response shapes are defined
// exactly once.

// ConvertRequest asks for one native plan's unified conversion.
type ConvertRequest struct {
	// Dialect is the engine key ("postgresql", …); case-insensitive.
	Dialect string `json:"dialect"`
	// Serialized is the native EXPLAIN output to convert.
	Serialized string `json:"serialized"`
}

// ConvertResponse is one successful conversion: the canonical plan JSON
// plus its structural fingerprints. Responses served from the response
// cache are byte-identical to fresh ones; the CacheHeader response
// header says which path a response took.
type ConvertResponse struct {
	Dialect string `json:"dialect"`
	// Plan is the unified plan in its canonical JSON serialization.
	Plan json.RawMessage `json:"plan"`
	// Fingerprint64 is the allocation-free FNV-1a structural sketch,
	// rendered as a decimal string (JSON numbers lose uint64 precision).
	Fingerprint64 string `json:"fingerprint64"`
	// Fingerprint is the collision-resistant SHA-256 fingerprint in the
	// traditional 32-character hex form.
	Fingerprint string `json:"fingerprint"`
}

// CacheHeader is the response header that reports whether a convert
// response was served from the response cache ("hit") or freshly
// converted ("miss"). A header, not a body field, so a cache hit serves
// the stored bytes untouched.
const CacheHeader = "X-Uplan-Cache"

// errBatchOverCap marks a batch request holding more records than the
// server's MaxBatchRecords. The batch decoders return it as soon as they
// see the excess record, and the server answers it 413.
var errBatchOverCap = errors.New("batch exceeds the record cap")

func batchOverCap(maxRecords int) error {
	return fmt.Errorf("%w of %d; split it", errBatchOverCap, maxRecords)
}

// BatchRequest asks for a corpus-at-once conversion through the worker
// pool.
type BatchRequest struct {
	Records []ConvertRequest `json:"records"`
}

// BatchItem is one record's outcome inside a BatchResponse. Exactly one
// of Plan and Error is set.
type BatchItem struct {
	Plan  json.RawMessage `json:"plan,omitempty"`
	Error string          `json:"error,omitempty"`
}

// BatchResponse pairs per-record outcomes with the run's aggregate
// statistics, indexed like the request's records.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Converted and Errors partition the results: every slot either
	// carries a plan or an error (conversion failure or deadline cutoff).
	Converted int `json:"converted"`
	Errors    int `json:"errors"`
	// DeadlineExceeded reports that the request's deadline expired before
	// every record was claimed; unconverted records carry the context
	// error in their Error field.
	DeadlineExceeded bool    `json:"deadline_exceeded,omitempty"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	PlansPerSec      float64 `json:"plans_per_sec"`
}

// FingerprintResponse is a conversion reduced to its fingerprints.
type FingerprintResponse struct {
	Dialect       string `json:"dialect"`
	Fingerprint64 string `json:"fingerprint64"`
	Fingerprint   string `json:"fingerprint"`
}

// CompareRequest asks for a structural comparison of two plans, possibly
// from different engines.
type CompareRequest struct {
	A ConvertRequest `json:"a"`
	B ConvertRequest `json:"b"`
}

// CompareResponse reports the structural differences between the two
// converted plans (Configuration properties only; Cardinality, Cost, and
// Status are expected to differ across engines).
type CompareResponse struct {
	Equal bool `json:"equal"`
	// Diffs renders each difference as core.Diff.String does.
	Diffs []string `json:"diffs,omitempty"`
	// Similarity is the tree-similarity score in [0, 1].
	Similarity float64 `json:"similarity"`
	// EditDistance is the tree edit distance between the two plans.
	EditDistance int `json:"edit_distance"`
}

// CampaignStatusResponse reports the attached campaign store's durable
// state. Attached is false when the server runs without a store; every
// other field is zero then.
type CampaignStatusResponse struct {
	Attached bool   `json:"attached"`
	Dir      string `json:"dir,omitempty"`
	// Plans and Findings count the distinct records the log currently
	// holds (recovered plus appended since).
	Plans    int `json:"plans,omitempty"`
	Findings int `json:"findings,omitempty"`
	// Tasks lists the per-task checkpoints recovered when the store was
	// opened, in deterministic order.
	Tasks []CampaignTaskStatus `json:"tasks,omitempty"`
}

// CampaignTaskStatus is one (engine, oracle) task's recovered checkpoint.
type CampaignTaskStatus struct {
	Engine  string `json:"engine"`
	Oracle  string `json:"oracle"`
	Done    bool   `json:"done"`
	Queries int    `json:"queries"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses,
	// so JSON-only clients see the backpressure hint too.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"` // "ok", "draining"
	// InFlight and Queued snapshot the admission state at probe time.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
}
