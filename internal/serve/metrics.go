package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"uplan/internal/pipeline"
)

// metrics is the server's counter set, all monotonic and race-free. The
// /metrics endpoint snapshots it as JSON; there is no push or external
// dependency — scrape-shaped, like pipeline.Stats.
type metrics struct {
	start time.Time

	// Per-endpoint request counts (admitted or not).
	convert        atomic.Int64
	batch          atomic.Int64
	fingerprint    atomic.Int64
	compare        atomic.Int64
	campaignStatus atomic.Int64

	// Admission outcomes.
	shedSingle       atomic.Int64 // 429s on non-batch work
	shedBatch        atomic.Int64 // 429s on batch work (degrades first)
	queueWaitExpired atomic.Int64 // deadlines that expired while queued

	// Failure isolation.
	panics           atomic.Int64 // handler panics recovered
	writeErrors      atomic.Int64 // response writes the client never got
	deadlineExceeded atomic.Int64 // requests cut short by their deadline
	badRequests      atomic.Int64 // 4xx request decode/validation failures

	// statsMu guards the cumulative conversion aggregate (per-dialect
	// records/converted/errors merged across every convert and batch).
	statsMu sync.Mutex
	stats   pipeline.Stats
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now()}
	m.stats.Dialects = map[string]*pipeline.DialectStats{}
	return m
}

// recordOne folds a single conversion outcome into the cumulative
// per-dialect aggregate.
func (m *metrics) recordOne(dialect string, err error) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	ds := m.stats.Dialects[dialect]
	if ds == nil {
		ds = &pipeline.DialectStats{Dialect: dialect}
		m.stats.Dialects[dialect] = ds
	}
	ds.Records++
	m.stats.Records++
	if err != nil {
		ds.Errors++
		m.stats.Errors++
		if ds.FirstError == nil {
			ds.FirstError = err
		}
		return
	}
	ds.Converted++
	m.stats.Converted++
}

// recordBatch folds one batch run's aggregate in. Operation
// histograms ride along so /metrics exposes the per-dialect shape that
// pipeline.Stats prints.
func (m *metrics) recordBatch(st pipeline.Stats) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	m.stats.Add(st)
}

// conversionReport snapshots the cumulative conversion aggregate.
func (m *metrics) conversionReport() pipeline.Report {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats.Report()
}

// MetricsSnapshot is the /metrics JSON body: a point-in-time copy of
// every counter plus the cumulative conversion aggregate.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	Requests struct {
		Convert        int64 `json:"convert"`
		Batch          int64 `json:"batch_convert"`
		Fingerprint    int64 `json:"fingerprint"`
		Compare        int64 `json:"compare"`
		CampaignStatus int64 `json:"campaign_status"`
	} `json:"requests"`

	Shed struct {
		Single           int64 `json:"single"`
		Batch            int64 `json:"batch"`
		QueueWaitExpired int64 `json:"queue_wait_expired"`
	} `json:"shed"`

	Panics           int64 `json:"panics"`
	WriteErrors      int64 `json:"write_errors"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	BadRequests      int64 `json:"bad_requests"`

	Cache struct {
		Capacity int   `json:"capacity"`
		Size     int   `json:"size"`
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
	} `json:"cache"`

	Conversions pipeline.Report `json:"conversions"`

	Store *CampaignStatusResponse `json:"store,omitempty"`
}
