// Package serve is the hardened plan service: an HTTP/JSON front end over
// the conversion pipeline and campaign store, built to stay up under
// overload rather than merely to be fast. The unified plan JSON is the
// wire payload (the paper's canonical serialization is already the right
// interchange shape); /v1/batch-convert also speaks a compact binary wire
// for bulk consumers (see BinaryContentType), and every other endpoint
// is JSON only, answering a binary body 415. The robustness machinery is
// the point:
//
//   - Bounded admission: a fixed in-flight slot pool plus a bounded wait
//     queue. A full queue sheds with 429 + Retry-After instead of
//     accumulating goroutines; batch requests shed at half the queue bound
//     so interactive converts degrade last.
//   - Per-request deadlines: every admitted request runs under a timeout
//     threaded into pipeline.Run, so a slow batch cannot hold a worker
//     slot past its budget.
//   - Panic isolation: a handler panic is recovered, counted, and answered
//     with a 500 — one poisoned request never takes the process down.
//   - Graceful drain: Drain stops accepting, lets in-flight work finish or
//     deadline-cancels it, syncs any attached campaign store, and leaves
//     health probes answering truthfully throughout (/readyz flips to 503
//     the moment draining starts; /healthz stays 200 while alive).
//   - One arena lifecycle, one response path per wire format: single
//     conversions borrow an arena from convert's shared pool per request,
//     batch workers one per worker. Every response body, convert or
//     fingerprint JSON, batch JSON or binary, is appended to a pooled
//     wireBuf while the plan is still in its arena, so no served
//     plan is cloned; a batch's items are encoded by the worker that
//     converted them, so its elapsed_seconds and plans_per_sec include
//     encoding. Plans never outlive their arena without a Clone detach
//     (the arenaescape lint enforces this).
//
// cmd/uplan-serve is the binary; serveclient is the matching retrying
// client; cmd/uplan-perf is the load generator.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
	"uplan/internal/store"
)

// Options configure a Server. The zero value serves on DefaultAddr with
// production-shaped bounds.
type Options struct {
	// Addr is the listen address for ListenAndServe. Empty means
	// DefaultAddr.
	Addr string
	// Workers bounds the batch conversion pool per request. Non-positive
	// means GOMAXPROCS (pipeline.Run clamps further).
	Workers int
	// MaxInFlight is the admission slot count: how many requests may hold
	// conversion work concurrently. Non-positive means 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a slot before the
	// server sheds with 429. Batch requests shed at MaxQueue/2. Zero
	// means DefaultMaxQueue; negative means no waiting (shed immediately
	// when all slots are busy).
	MaxQueue int
	// RequestTimeout is the deadline for single-plan requests (convert,
	// fingerprint, compare), queue wait included. Non-positive means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// BatchTimeout is the deadline for batch-convert requests, threaded
	// into the pipeline's context so unclaimed records are cut off at the
	// deadline. Non-positive means DefaultBatchTimeout.
	BatchTimeout time.Duration
	// ReadHeaderTimeout and ReadTimeout bound how long a connection may
	// take to deliver its request — the slow-loris defense. Non-positive
	// means DefaultReadTimeout.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	// MaxBodyBytes caps a request body; larger bodies get 413.
	// Non-positive means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchRecords caps the records in one batch-convert request.
	// Non-positive means DefaultMaxBatchRecords.
	MaxBatchRecords int
	// CacheSize is the convert response cache capacity in entries
	// (fingerprint-keyed LRU; see responseCache). Zero means
	// DefaultCacheSize; negative disables the cache.
	CacheSize int
	// Store, when non-nil, attaches a campaign log: /v1/campaign-status
	// reports it and Drain syncs it before returning. The caller owns the
	// store's lifecycle (the server never closes it).
	Store *store.Store
	// HandlerDelay, when positive, sleeps every admitted conversion
	// handler for the duration before it does any work — a fault-injection
	// aid for queue-full and drain testing (the CI smoke uses it to make
	// 429s deterministic). Never set it in production.
	HandlerDelay time.Duration
}

// Defaults for the zero Options value.
const (
	DefaultAddr            = "127.0.0.1:8091"
	DefaultMaxQueue        = 64
	DefaultRequestTimeout  = 5 * time.Second
	DefaultBatchTimeout    = 30 * time.Second
	DefaultReadTimeout     = 10 * time.Second
	DefaultMaxBodyBytes    = 8 << 20 // 8 MiB
	DefaultMaxBatchRecords = 4096
	DefaultCacheSize       = 1024
)

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = DefaultAddr
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = DefaultMaxQueue
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = DefaultBatchTimeout
	}
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = DefaultReadTimeout
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = DefaultReadTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxBatchRecords <= 0 {
		o.MaxBatchRecords = DefaultMaxBatchRecords
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	return o
}

// Server is the plan service. Create with New; the zero value is not
// usable.
type Server struct {
	opts Options

	adm     *admission
	cache   *responseCache
	metrics *metrics

	handler http.Handler
	http    *http.Server

	// baseCtx parents every request context; Drain cancels it when the
	// drain deadline expires, deadline-cancelling all in-flight work.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	draining atomic.Bool
	drainMu  sync.Mutex // serializes Drain
}

// New builds a Server from opts. It does not listen; call ListenAndServe
// or Serve, or mount Handler on an existing server for tests.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		adm:     newAdmission(opts.MaxInFlight, opts.MaxQueue),
		cache:   newResponseCache(opts.CacheSize),
		metrics: newMetrics(),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/convert", s.handleConvert)
	mux.HandleFunc("POST /v1/batch-convert", s.handleBatch)
	mux.HandleFunc("POST /v1/fingerprint", s.handleFingerprint)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("GET /v1/campaign-status", s.handleCampaignStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.isolate(mux)

	s.http = &http.Server{
		Addr:              opts.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		ReadTimeout:       opts.ReadTimeout,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	return s
}

// Handler returns the service's full handler (panic isolation included),
// for mounting under httptest or an existing mux.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics snapshots the server's counters — the same data /metrics
// serves.
func (s *Server) Metrics() MetricsSnapshot { return s.snapshot() }

// ListenAndServe listens on Options.Addr and serves until Drain (returns
// nil then) or a listener error.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.opts.Addr, err)
	}
	return s.Serve(l)
}

// Serve accepts connections from l until Drain. The listener is closed by
// the underlying http.Server on shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr formats the address Serve would be reached on; tests use it with a
// :0 listener.
func (s *Server) Addr() string { return s.opts.Addr }

// Drain shuts the server down gracefully: new connections are refused and
// /readyz flips to 503 immediately, in-flight requests run to completion
// or until ctx's deadline (then their contexts are cancelled and
// connections force-closed), and any attached campaign store is synced so
// everything journaled is durable before the process exits. Drain is
// idempotent and safe to call concurrently; it returns the first
// shutdown or store-sync failure.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.draining.Store(true)

	var errs []error
	// Shutdown stops accepting and waits for in-flight requests. When ctx
	// expires first, cancel the base context — every request context
	// derives from it, so batches stop at their next chunk boundary — and
	// force-close whatever connections remain.
	if err := s.http.Shutdown(ctx); err != nil {
		s.cancelBase()
		if cerr := s.http.Close(); cerr != nil {
			errs = append(errs, fmt.Errorf("serve: close: %w", cerr))
		}
		errs = append(errs, fmt.Errorf("serve: drain: %w", err))
	}
	s.cancelBase()

	// The durability barrier: a drain that answered "journaled" must not
	// lose it to a missing fsync. Failures surface to the caller — the
	// process should exit nonzero when its final sync failed.
	if s.opts.Store != nil {
		if err := s.opts.Store.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("serve: store sync on drain: %w", err))
		}
	}
	return errors.Join(errs...)
}

// isolate wraps the mux with per-request panic isolation: a panicking
// handler is counted and answered with a 500 instead of unwinding into
// the connection goroutine.
func (s *Server) isolate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		iw := &isolatedWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panics.Add(1)
				if !iw.wrote {
					s.writeError(iw, http.StatusInternalServerError,
						fmt.Sprintf("internal error: %v", v), 0)
				}
			}
		}()
		next.ServeHTTP(iw, r)
	})
}

// isolatedWriter tracks whether a response has started, so the panic
// handler knows if a 500 can still be written.
type isolatedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *isolatedWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *isolatedWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// writeJSON marshals v and writes it with the given status. Write
// failures (client gone mid-response) are counted, never retried.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Marshaling our own response types cannot fail; treat it as the
		// internal error it would be.
		s.metrics.panics.Add(1)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.writeTyped(w, status, jsonContentType, body)
}

// writeTyped writes a body, given as consecutive parts, under one media
// type and Content-Length. The first failed write (client gone
// mid-response) is counted and ends the response.
func (s *Server) writeTyped(w http.ResponseWriter, status int, contentType string, parts ...[]byte) {
	n := 0
	for _, b := range parts {
		n += len(b)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, b := range parts {
		if _, err := w.Write(b); err != nil {
			s.metrics.writeErrors.Add(1)
			return
		}
	}
}

// writeError answers with an ErrorResponse; retryAfter > 0 additionally
// sets the Retry-After header (the 429 backpressure contract).
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.writeJSON(w, status, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// admit runs the admission queue for one request and maps the failure
// modes to their responses. On success the caller must invoke the
// returned release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, batch bool) (func(), bool) {
	release, err := s.adm.acquire(ctx, batch)
	if err == nil {
		return release, true
	}
	if shed, ok := asShed(err); ok {
		if batch {
			s.metrics.shedBatch.Add(1)
		} else {
			s.metrics.shedSingle.Add(1)
		}
		s.writeError(w, http.StatusTooManyRequests, shed.Error(), shed.retryAfter)
		return nil, false
	}
	// The request's deadline expired while it waited in the queue: the
	// work never started, so the client may retry safely.
	s.metrics.queueWaitExpired.Add(1)
	s.writeError(w, http.StatusServiceUnavailable,
		"deadline expired waiting for admission", 1)
	return nil, false
}

// decodeBody reads one bounded request body in full into a pooled buffer
// and decodes it, with the JSON or the binary wire decoder. Both copy
// every string they keep, so the buffer goes back to the pool as soon as
// decode returns.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error), dst *T) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	buf := getWireBuf(false)
	defer buf.put()
	rd := bytes.NewBuffer(buf.body)
	_, err := rd.ReadFrom(r.Body)
	buf.body = rd.Bytes()
	if err != nil {
		s.badBody(w, err)
		return false
	}
	req, err := decode(buf.body)
	if err != nil {
		s.badBody(w, err)
		return false
	}
	*dst = req
	return true
}

// badBody answers a request whose body failed to read or decode: 413 when
// the body bound cut it off or the batch has too many records, 400
// otherwise.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	s.metrics.badRequests.Add(1)
	if errors.Is(err, errBatchOverCap) {
		s.writeError(w, http.StatusRequestEntityTooLarge, err.Error(), 0)
		return
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, "bad request body: "+err.Error(), 0)
}

// decodeJSONBody is decodeBody for the JSON-only endpoints: the binary
// wire carries batches only, so a binary body is refused with a 415,
// counted as a bad request, before it is read.
func decodeJSONBody[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error), dst *T) bool {
	if isBinaryContent(r) {
		s.metrics.badRequests.Add(1)
		s.writeError(w, http.StatusUnsupportedMediaType,
			"binary request bodies are accepted by /v1/batch-convert only (one plan is a batch of one record there); send JSON here", 0)
		return false
	}
	return decodeBody(s, w, r, decode, dst)
}

// decodeBatch reads one batch request in its negotiated format: binary
// when the Content-Type says so, JSON otherwise. Both decoders enforce
// MaxBatchRecords while they decode.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, dst *BatchRequest) bool {
	maxRecords := s.opts.MaxBatchRecords
	decode := func(b []byte) (BatchRequest, error) { return decodeBatchRequest(b, maxRecords) }
	if isBinaryContent(r) {
		decode = func(b []byte) (BatchRequest, error) { return DecodeBinaryBatchRequest(b, maxRecords) }
	}
	return decodeBody(s, w, r, decode, dst)
}

// delay is the HandlerDelay fault-injection hook, context-aware so a
// drain is never held up by it.
func (s *Server) delay(ctx context.Context) {
	if s.opts.HandlerDelay <= 0 {
		return
	}
	t := time.NewTimer(s.opts.HandlerDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// delayInDeadline runs the HandlerDelay hook for a single-plan request
// and reports whether the request's deadline is still open afterwards.
// If it is not, the request is answered 503 and counted as
// deadline_exceeded, so no handler starts work its client has given up on.
func (s *Server) delayInDeadline(ctx context.Context, w http.ResponseWriter) bool {
	s.delay(ctx)
	if ctx.Err() == nil {
		return true
	}
	s.metrics.deadlineExceeded.Add(1)
	s.writeError(w, http.StatusServiceUnavailable, "request deadline expired", 1)
	return false
}

// convertInPooledArena converts one record inside an arena borrowed from
// convert's pool and hands the in-arena plan to use before the arena is
// returned. The plan must not escape use (build the response inside it);
// anything retained must be detached with Plan.Clone first.
func (s *Server) convertInPooledArena(dialect, serialized string, use func(p *core.Plan)) error {
	ar := convert.BorrowArena()
	defer convert.ReturnArena(ar)
	p, err := convert.ConvertInto(dialect, serialized, ar)
	if err != nil {
		return err
	}
	use(p)
	return nil
}

// convertOne answers one single-plan request: admit, delay, convert in a
// pooled arena, append the response (with the plan when withPlan) while
// the plan is in the arena, write. done, when non-nil, sees the pooled
// body before it is written and must copy what it keeps.
func (s *Server) convertOne(w http.ResponseWriter, r *http.Request, req ConvertRequest, withPlan bool, done func(body []byte)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	release, ok := s.admit(ctx, w, false)
	if !ok {
		return
	}
	defer release()
	if !s.delayInDeadline(ctx, w) {
		return
	}

	resp := getWireBuf(false)
	defer resp.put()
	err := s.convertInPooledArena(req.Dialect, req.Serialized, func(p *core.Plan) {
		resp.single(req.Dialect, p, withPlan)
	})
	s.metrics.recordOne(req.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	if done != nil {
		done(resp.body)
	}
	s.writeTyped(w, http.StatusOK, jsonContentType, resp.body)
}

func (s *Server) handleConvert(w http.ResponseWriter, r *http.Request) {
	s.metrics.convert.Add(1)
	var req ConvertRequest
	if !decodeJSONBody(s, w, r, decodeConvertRequest, &req) {
		return
	}

	// Cache before admission: a hit costs one hash and one map probe, so
	// it must not consume (or wait for) a conversion slot.
	key := cacheKey(req.Dialect, req.Serialized)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set(CacheHeader, "hit")
		s.writeTyped(w, http.StatusOK, jsonContentType, body)
		return
	}
	s.convertOne(w, r, req, true, func(body []byte) {
		s.cache.Put(key, body)
		w.Header().Set(CacheHeader, "miss")
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batch.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.BatchTimeout)
	defer cancel()

	var req BatchRequest
	if !s.decodeBatch(w, r, &req) {
		return
	}
	binary := acceptsBinary(r)
	if len(req.Records) == 0 {
		s.metrics.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, "batch has no records", 0)
		return
	}

	release, ok := s.admit(ctx, w, true)
	if !ok {
		return
	}
	defer release()
	s.delay(ctx)

	records := make([]pipeline.Record, len(req.Records))
	for i, cr := range req.Records {
		records[i] = pipeline.Record{Dialect: cr.Dialect, Serialized: cr.Serialized}
	}
	batch := newBatchBody(len(records), binary)
	stats := pipeline.Run(records, pipeline.Options{Workers: s.opts.Workers, Context: ctx}, batch.emit)
	s.metrics.recordBatch(stats)
	deadlineExceeded := ctx.Err() != nil
	if deadlineExceeded {
		s.metrics.deadlineExceeded.Add(1)
	}
	s.writeBatch(w, batch, stats, deadlineExceeded)
}

// writeBatch closes batch with its trailer and writes the chunks in
// record order under one Content-Length, then returns them to the pool.
func (s *Server) writeBatch(w http.ResponseWriter, batch *batchBody, stats pipeline.Stats, deadlineExceeded bool) {
	errs, last := 0, batch.chunks[len(batch.chunks)-1]
	for _, c := range batch.chunks {
		errs += c.errs
	}
	last.trailer(stats, errs, deadlineExceeded)
	parts := make([][]byte, len(batch.chunks))
	for i, c := range batch.chunks {
		parts[i] = c.body
	}
	s.writeTyped(w, http.StatusOK, negotiatedType(batch.binary), parts...)
	for _, c := range batch.chunks {
		c.put()
	}
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	s.metrics.fingerprint.Add(1)
	var req ConvertRequest
	if !decodeJSONBody(s, w, r, decodeConvertRequest, &req) {
		return
	}
	s.convertOne(w, r, req, false, nil)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.metrics.compare.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	var req CompareRequest
	if !decodeJSONBody(s, w, r, decodeCompareRequest, &req) {
		return
	}
	release, ok := s.admit(ctx, w, false)
	if !ok {
		return
	}
	defer release()
	if !s.delayInDeadline(ctx, w) {
		return
	}

	// Convert A and detach it, so one pooled arena serves both plans
	// sequentially; B is compared in-arena and never escapes.
	var planA *core.Plan
	err := s.convertInPooledArena(req.A.Dialect, req.A.Serialized, func(p *core.Plan) {
		planA = p.Clone()
	})
	s.metrics.recordOne(req.A.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "plan a: "+err.Error(), 0)
		return
	}
	var resp CompareResponse
	err = s.convertInPooledArena(req.B.Dialect, req.B.Serialized, func(p *core.Plan) {
		diffs := core.Compare(planA, p)
		dist, sim := core.EditSimilarity(planA, p)
		resp = CompareResponse{
			Equal:        len(diffs) == 0,
			Similarity:   sim,
			EditDistance: dist,
		}
		for _, d := range diffs {
			resp.Diffs = append(resp.Diffs, d.String())
		}
	})
	s.metrics.recordOne(req.B.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "plan b: "+err.Error(), 0)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// campaignStatus builds the status body from the attached store.
func (s *Server) campaignStatus() CampaignStatusResponse {
	st := s.opts.Store
	if st == nil {
		return CampaignStatusResponse{}
	}
	resp := CampaignStatusResponse{
		Attached: true,
		Dir:      st.Dir(),
		Plans:    st.Plans(),
		Findings: st.Findings(),
	}
	rec := st.Recovered()
	for _, key := range rec.Tasks() {
		p := rec.Progress[key]
		resp.Tasks = append(resp.Tasks, CampaignTaskStatus{
			Engine: key.Engine, Oracle: key.Oracle,
			Done: p.Done, Queries: p.Queries,
		})
	}
	return resp
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.campaignStatus.Add(1)
	s.writeJSON(w, http.StatusOK, s.campaignStatus())
}

// handleHealthz is the liveness probe: 200 as long as the process can
// answer at all, draining included — a draining server is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		InFlight: s.adm.inFlight(),
		Queued:   s.adm.queueDepth(),
	})
}

// handleReadyz is the readiness probe: 503 the moment draining starts
// (stop routing new work here), 200 otherwise. The body always carries
// the true admission state.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:   "ok",
		InFlight: s.adm.inFlight(),
		Queued:   s.adm.queueDepth(),
	}
	if s.draining.Load() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) snapshot() MetricsSnapshot {
	m := s.metrics
	var snap MetricsSnapshot
	snap.UptimeSeconds = time.Since(m.start).Seconds()
	snap.Draining = s.draining.Load()
	snap.InFlight = s.adm.inFlight()
	snap.QueueDepth = s.adm.queueDepth()
	snap.Requests.Convert = m.convert.Load()
	snap.Requests.Batch = m.batch.Load()
	snap.Requests.Fingerprint = m.fingerprint.Load()
	snap.Requests.Compare = m.compare.Load()
	snap.Requests.CampaignStatus = m.campaignStatus.Load()
	snap.Shed.Single = m.shedSingle.Load()
	snap.Shed.Batch = m.shedBatch.Load()
	snap.Shed.QueueWaitExpired = m.queueWaitExpired.Load()
	snap.Panics = m.panics.Load()
	snap.WriteErrors = m.writeErrors.Load()
	snap.DeadlineExceeded = m.deadlineExceeded.Load()
	snap.BadRequests = m.badRequests.Load()
	snap.Cache.Capacity = s.cache.capacity
	snap.Cache.Size = s.cache.Len()
	snap.Cache.Hits, snap.Cache.Misses = s.cache.Stats()
	snap.Conversions = m.conversionReport()
	if s.opts.Store != nil {
		st := s.campaignStatus()
		snap.Store = &st
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.snapshot())
}
