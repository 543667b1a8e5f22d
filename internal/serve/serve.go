// Package serve is the hardened plan service: an HTTP/JSON front end over
// the conversion pipeline and campaign store, built to stay up under
// overload rather than merely to be fast. The unified plan JSON is the
// wire payload (the paper's canonical serialization is already the right
// interchange shape); the robustness machinery is the point:
//
//   - Bounded admission: a fixed in-flight slot pool plus a bounded wait
//     queue. A full queue sheds with 429 + Retry-After instead of
//     accumulating goroutines; batch requests shed at half the queue bound
//     so interactive converts degrade last.
//   - Per-request deadlines: every admitted request runs under a timeout
//     threaded through pipeline.ForEachChunkedCtx, so a slow batch cannot
//     hold a worker slot past its budget.
//   - Panic isolation: a handler panic is recovered, counted, and answered
//     with a 500 — one poisoned request never takes the process down.
//   - Graceful drain: Drain stops accepting, lets in-flight work finish or
//     deadline-cancels it, syncs any attached campaign store, and leaves
//     health probes answering truthfully throughout (/readyz flips to 503
//     the moment draining starts; /healthz stays 200 while alive).
//   - One arena lifecycle: single conversions borrow an arena from
//     convert's shared pool per request and return it afterwards; batch
//     workers borrow one from the same pool per worker. Plans never
//     outlive their arena without a Clone detach (the arenaescape lint
//     enforces this).
//
// cmd/uplan-serve is the binary; serveclient is the matching retrying
// client; cmd/uplan-perf is the load generator.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
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

	"uplan/internal/codec"
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
	// means GOMAXPROCS (ConvertBatch clamps further).
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
	s.writeBody(w, status, body)
}

// writeBody writes a pre-marshaled JSON body.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	s.writeTyped(w, status, jsonContentType, body)
}

// writeTyped writes a pre-marshaled body under an explicit media type —
// the shared tail of the JSON and binary response paths.
func (s *Server) writeTyped(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.metrics.writeErrors.Add(1)
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

// decode reads one bounded JSON request body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.badBody(w, err)
		return false
	}
	return true
}

// wireBufPool recycles the buffers binary request bodies are read into
// and binary batch responses are written from. Buffers that grew past
// maxPooledWireBuf are dropped instead of pooled, so one large batch does
// not pin its memory for the life of the process.
var wireBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledWireBuf = 1 << 20

func getWireBuf() *bytes.Buffer { return wireBufPool.Get().(*bytes.Buffer) }

func putWireBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledWireBuf {
		return
	}
	b.Reset()
	wireBufPool.Put(b)
}

// decodeBinary reads one bounded binary request body in full (the wire
// decoders need the complete message) into a pooled buffer and decodes
// it. The decoders copy every string out, so the buffer goes back to the
// pool as soon as decode returns.
func decodeBinary[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error), dst *T) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	buf := getWireBuf()
	defer putWireBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		s.badBody(w, err)
		return false
	}
	req, err := decode(buf.Bytes())
	if err != nil {
		s.badBody(w, err)
		return false
	}
	*dst = req
	return true
}

// badBody answers a request whose body failed to read or decode: 413 when
// the bound cut it off, 400 otherwise.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	s.metrics.badRequests.Add(1)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, "bad request body: "+err.Error(), 0)
}

// decodeConvert reads one convert request in its negotiated format:
// binary when the Content-Type says so, bounded JSON otherwise.
func (s *Server) decodeConvert(w http.ResponseWriter, r *http.Request, dst *ConvertRequest) bool {
	if !isBinaryContent(r) {
		return s.decode(w, r, dst)
	}
	return decodeBinary(s, w, r, DecodeBinaryConvertRequest, dst)
}

// decodeBatch is decodeConvert's batch-request counterpart.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, dst *BatchRequest) bool {
	if !isBinaryContent(r) {
		return s.decode(w, r, dst)
	}
	return decodeBinary(s, w, r, DecodeBinaryBatchRequest, dst)
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

// convertInPooledArena converts one record inside an arena borrowed from
// convert's pool and hands the in-arena plan to use before the arena is
// returned. The plan must not escape use (build the response inside it);
// anything retained must be detached with Plan.Clone first.
func (s *Server) convertInPooledArena(dialect, serialized string, use func(p *core.Plan) error) error {
	ar := convert.BorrowArena()
	defer convert.ReturnArena(ar)
	p, err := convert.ConvertInto(dialect, serialized, ar)
	if err != nil {
		return err
	}
	return use(p)
}

// buildConvertBody converts one request and marshals the full
// ConvertResponse body, for the convert handler and its cache fill.
func (s *Server) buildConvertBody(req ConvertRequest) ([]byte, error) {
	var resp ConvertResponse
	err := s.convertInPooledArena(req.Dialect, req.Serialized, func(p *core.Plan) error {
		planJSON, merr := p.MarshalJSON()
		if merr != nil {
			return fmt.Errorf("marshaling converted plan: %w", merr)
		}
		resp = ConvertResponse{
			Dialect:       req.Dialect,
			Plan:          planJSON,
			Fingerprint64: strconv.FormatUint(p.Fingerprint64(core.FingerprintOptions{}), 10),
			Fingerprint:   core.HexFingerprint(p.FingerprintBytes(core.FingerprintOptions{})),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// buildConvertBinary is buildConvertBody on the binary wire: the plan
// leaves as an internal/codec blob instead of canonical JSON, the
// fingerprints in their natural binary forms.
func (s *Server) buildConvertBinary(req ConvertRequest) ([]byte, error) {
	var body []byte
	err := s.convertInPooledArena(req.Dialect, req.Serialized, func(p *core.Plan) error {
		blob, merr := codec.Encode(p)
		if merr != nil {
			return fmt.Errorf("encoding converted plan: %w", merr)
		}
		body = AppendBinaryConvertResponse(nil, BinaryConvertResponse{
			Dialect:       req.Dialect,
			Fingerprint64: p.Fingerprint64(core.FingerprintOptions{}),
			Fingerprint:   p.FingerprintBytes(core.FingerprintOptions{}),
			PlanBlob:      blob,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

func (s *Server) handleConvert(w http.ResponseWriter, r *http.Request) {
	s.metrics.convert.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	var req ConvertRequest
	if !s.decodeConvert(w, r, &req) {
		return
	}
	binary := acceptsBinary(r)

	// Cache before admission: a hit costs one hash and one map probe, so
	// it must not consume (or wait for) a conversion slot. The key folds
	// in the negotiated response format — identical input bytes hit only
	// within their own format.
	key := cacheKey(req.Dialect, req.Serialized, binary)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set(CacheHeader, "hit")
		s.writeTyped(w, http.StatusOK, negotiatedType(binary), body)
		return
	}

	release, ok := s.admit(ctx, w, false)
	if !ok {
		return
	}
	defer release()
	s.delay(ctx)
	if err := ctx.Err(); err != nil {
		s.metrics.deadlineExceeded.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "request deadline expired", 1)
		return
	}

	var body []byte
	var err error
	if binary {
		body, err = s.buildConvertBinary(req)
	} else {
		body, err = s.buildConvertBody(req)
	}
	s.metrics.recordOne(req.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	s.cache.Put(key, body)
	w.Header().Set(CacheHeader, "miss")
	s.writeTyped(w, http.StatusOK, negotiatedType(binary), body)
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
	if len(req.Records) > s.opts.MaxBatchRecords {
		s.metrics.badRequests.Add(1)
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d records exceeds the %d-record cap; split it",
				len(req.Records), s.opts.MaxBatchRecords), 0)
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
	results, stats := pipeline.ConvertBatch(records, pipeline.Options{
		Workers: s.opts.Workers,
		Context: ctx,
	})
	s.metrics.recordBatch(stats)

	deadlineExceeded := false
	if err := ctx.Err(); err != nil {
		s.metrics.deadlineExceeded.Add(1)
		deadlineExceeded = true
	}

	if binary {
		s.writeBinaryBatch(w, results, stats, deadlineExceeded)
		return
	}

	resp := BatchResponse{
		Results:          make([]BatchItem, len(results)),
		Converted:        stats.Converted,
		DeadlineExceeded: deadlineExceeded,
		ElapsedSeconds:   stats.Elapsed.Seconds(),
		PlansPerSec:      stats.PlansPerSec(),
	}
	// Errors counts per slot, not from stats: records the deadline cut off
	// before a worker claimed them carry ctx's error in their slot but are
	// not conversion errors, and the response must still add up.
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = BatchItem{Error: res.Err.Error()}
			resp.Errors++
			continue
		}
		planJSON, err := res.Plan.MarshalJSON()
		if err != nil {
			resp.Results[i] = BatchItem{Error: err.Error()}
			resp.Errors++
			continue
		}
		resp.Results[i] = BatchItem{Plan: planJSON}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeBinaryBatch streams a binary batch response into one pooled
// buffer in a single pass: each converted plan is encoded by one reused
// codec.Encoder straight behind its item tag and length, so no per-plan
// blob or BinaryBatchResponse is built. The bytes equal
// AppendBinaryBatchResponse over codec.Encode blobs of the same results.
// Errors counts per slot, as in the JSON response.
func (s *Server) writeBinaryBatch(w http.ResponseWriter, results []pipeline.Result, stats pipeline.Stats, deadlineExceeded bool) {
	buf := getWireBuf()
	var enc codec.Encoder
	dst := binary.AppendUvarint(buf.AvailableBuffer(), uint64(len(results)))
	errs := 0
	for _, res := range results {
		err := res.Err
		if err == nil {
			dst, err = appendBatchPlan(dst, &enc, res.Plan)
		}
		if err != nil {
			dst = appendBatchError(dst, err.Error())
			errs++
		}
	}
	dst = appendBatchTrailer(dst, stats.Converted, errs, deadlineExceeded, stats.Elapsed.Seconds(), stats.PlansPerSec())
	s.writeTyped(w, http.StatusOK, BinaryContentType, dst)
	if cap(dst) > buf.Cap() {
		// The response outgrew the pooled buffer; pool the grown storage.
		buf = bytes.NewBuffer(dst[:0])
	}
	putWireBuf(buf)
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	s.metrics.fingerprint.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	var req ConvertRequest
	if !s.decode(w, r, &req) {
		return
	}
	release, ok := s.admit(ctx, w, false)
	if !ok {
		return
	}
	defer release()
	s.delay(ctx)

	var resp FingerprintResponse
	err := s.convertInPooledArena(req.Dialect, req.Serialized, func(p *core.Plan) error {
		resp = FingerprintResponse{
			Dialect:       req.Dialect,
			Fingerprint64: strconv.FormatUint(p.Fingerprint64(core.FingerprintOptions{}), 10),
			Fingerprint:   core.HexFingerprint(p.FingerprintBytes(core.FingerprintOptions{})),
		}
		return nil
	})
	s.metrics.recordOne(req.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.metrics.compare.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	var req CompareRequest
	if !s.decode(w, r, &req) {
		return
	}
	release, ok := s.admit(ctx, w, false)
	if !ok {
		return
	}
	defer release()
	s.delay(ctx)

	// Convert A and detach it, so one pooled arena serves both plans
	// sequentially; B is compared in-arena and never escapes.
	var planA *core.Plan
	err := s.convertInPooledArena(req.A.Dialect, req.A.Serialized, func(p *core.Plan) error {
		planA = p.Clone()
		return nil
	})
	s.metrics.recordOne(req.A.Dialect, err)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "plan a: "+err.Error(), 0)
		return
	}
	var resp CompareResponse
	err = s.convertInPooledArena(req.B.Dialect, req.B.Serialized, func(p *core.Plan) error {
		diffs := core.Compare(planA, p)
		resp = CompareResponse{
			Equal:        len(diffs) == 0,
			Similarity:   core.Similarity(planA, p),
			EditDistance: core.TreeEditDistance(planA, p),
		}
		for _, d := range diffs {
			resp.Diffs = append(resp.Diffs, d.String())
		}
		return nil
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
