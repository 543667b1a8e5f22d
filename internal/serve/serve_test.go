package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/store"
)

// pgPlan is a minimal valid PostgreSQL text plan for request bodies.
const pgPlan = "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"

// pgPlanJoin is a structurally different plan for compare tests.
const pgPlanJoin = "Hash Join  (cost=10.00..20.00 rows=100 width=8)\n" +
	"  Hash Cond: (t0.c0 = t1.c0)\n" +
	"  ->  Seq Scan on t0  (cost=0.00..5.00 rows=100 width=4)\n" +
	"  ->  Hash  (cost=5.00..5.00 rows=100 width=4)\n" +
	"        ->  Seq Scan on t1  (cost=0.00..5.00 rows=100 width=4)"

// newTestServer mounts a Server's handler under httptest; good for every
// test that does not exercise the listener or drain machinery.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// startServer runs a Server on a real loopback listener so Drain and the
// connection-level faults work end to end. The returned channel yields
// Serve's result.
func startServer(t *testing.T, opts Options) (*Server, string, chan error) {
	t.Helper()
	s := New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()
	return s, "http://" + l.Addr().String(), errCh
}

// postJSON posts v and decodes the response body into out (unless nil),
// returning the response for status/header checks.
func postJSON(t *testing.T, url string, v, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp
}

func TestServeConvertAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}

	var first ConvertResponse
	resp := postJSON(t, ts.URL+"/v1/convert", req, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("convert status = %d", resp.StatusCode)
	}
	if resp.Header.Get(CacheHeader) != "miss" {
		t.Errorf("first convert %s = %q, want miss", CacheHeader, resp.Header.Get(CacheHeader))
	}
	if len(first.Plan) == 0 || first.Fingerprint64 == "" || first.Fingerprint == "" {
		t.Fatalf("incomplete convert response: %+v", first)
	}

	var second ConvertResponse
	resp = postJSON(t, ts.URL+"/v1/convert", req, &second)
	if resp.Header.Get(CacheHeader) != "hit" {
		t.Errorf("repeat convert %s = %q, want hit", CacheHeader, resp.Header.Get(CacheHeader))
	}
	if second.Fingerprint != first.Fingerprint || !bytes.Equal(second.Plan, first.Plan) {
		t.Error("cached response differs from the fresh one")
	}
	snap := s.Metrics()
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Conversions.Records != 1 {
		t.Errorf("conversion records = %d, want 1 (the hit must not reconvert)", snap.Conversions.Records)
	}
}

func TestServeConvertErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 1 << 10, MaxBatchRecords: 4})

	// Unknown dialect: 422, conversion-level failure.
	resp := postJSON(t, ts.URL+"/v1/convert", ConvertRequest{Dialect: "no-such-db", Serialized: "x"}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown dialect status = %d, want 422", resp.StatusCode)
	}

	// A JSON plan node without its operator name: 422, like any plan the
	// converter refuses.
	for _, req := range []ConvertRequest{
		{Dialect: "tidb", Serialized: "{}"},
		{Dialect: "postgresql", Serialized: `{"Plan": {}}`},
	} {
		resp = postJSON(t, ts.URL+"/v1/convert", req, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s %s status = %d, want 422", req.Dialect, req.Serialized, resp.StatusCode)
		}
	}

	// Malformed JSON: 400.
	r2, err := http.Post(ts.URL+"/v1/convert", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", r2.StatusCode)
	}

	// Oversized body: 413.
	big := ConvertRequest{Dialect: "postgresql", Serialized: strings.Repeat("x", 2<<10)}
	resp = postJSON(t, ts.URL+"/v1/convert", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// Batch over the record cap: 413.
	over := BatchRequest{Records: make([]ConvertRequest, 5)}
	for i := range over.Records {
		over.Records[i] = ConvertRequest{Dialect: "postgresql", Serialized: "s"}
	}
	resp = postJSON(t, ts.URL+"/v1/batch-convert", over, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d, want 413", resp.StatusCode)
	}

	// Empty batch: 400.
	resp = postJSON(t, ts.URL+"/v1/batch-convert", BatchRequest{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}

	// Wrong method: the mux's method patterns answer 405.
	r3, err := http.Get(ts.URL + "/v1/convert")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/convert status = %d, want 405", r3.StatusCode)
	}
}

func TestServeBatchConvertMixedRecords(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := BatchRequest{Records: []ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "no-such-db", Serialized: "x"},
		{Dialect: "postgresql", Serialized: pgPlanJoin},
	}}
	var resp BatchResponse
	hr := postJSON(t, ts.URL+"/v1/batch-convert", req, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", hr.StatusCode)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Converted != 2 || resp.Errors != 1 {
		t.Errorf("converted/errors = %d/%d, want 2/1", resp.Converted, resp.Errors)
	}
	for i, item := range resp.Results {
		hasPlan, hasErr := len(item.Plan) > 0, item.Error != ""
		if hasPlan == hasErr {
			t.Errorf("result %d: exactly one of plan/error must be set (plan=%v err=%v)", i, hasPlan, hasErr)
		}
	}
	if resp.Results[1].Error == "" {
		t.Error("the bad record's slot lost its error")
	}
	if resp.DeadlineExceeded {
		t.Error("deadline flag set on an undeadlined batch")
	}
	if snap := s.Metrics(); snap.Conversions.Records != 3 {
		t.Errorf("metrics absorbed %d batch records, want 3", snap.Conversions.Records)
	}
}

func TestServeFingerprintMatchesConvert(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var conv ConvertResponse
	postJSON(t, ts.URL+"/v1/convert", ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}, &conv)
	var fp FingerprintResponse
	hr := postJSON(t, ts.URL+"/v1/fingerprint", ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}, &fp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint status = %d", hr.StatusCode)
	}
	if fp.Fingerprint64 != conv.Fingerprint64 || fp.Fingerprint != conv.Fingerprint {
		t.Errorf("fingerprint endpoint disagrees with convert: %+v vs %+v", fp, conv)
	}
}

func TestServeCompare(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	same := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}
	var eq CompareResponse
	hr := postJSON(t, ts.URL+"/v1/compare", CompareRequest{A: same, B: same}, &eq)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d", hr.StatusCode)
	}
	if !eq.Equal || eq.Similarity != 1 || eq.EditDistance != 0 {
		t.Errorf("identical plans compare as %+v", eq)
	}
	var ne CompareResponse
	postJSON(t, ts.URL+"/v1/compare", CompareRequest{
		A: same,
		B: ConvertRequest{Dialect: "postgresql", Serialized: pgPlanJoin},
	}, &ne)
	if ne.Equal || len(ne.Diffs) == 0 || ne.EditDistance == 0 {
		t.Errorf("different plans compare as %+v", ne)
	}
}

// TestServeCompareMatchesCore runs /v1/compare over pairs of
// bench.Corpus(42) plans, mostly cross-dialect: the handler computes the
// edit distance once and derives the similarity from it, so both fields
// must equal what core.TreeEditDistance and core.Similarity report on
// their own. Plans over 10 nodes are left out, because the edit distance
// is exponential in plan depth.
func TestServeCompareMatchesCore(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var reqs []ConvertRequest
	var plans []*core.Plan
	for _, r := range corpusRequests(t, 42) {
		p, err := convert.Convert(r.Dialect, r.Serialized)
		if err != nil {
			t.Fatal(err)
		}
		if p.NodeCount() <= 10 {
			reqs, plans = append(reqs, r), append(plans, p)
		}
	}
	if len(reqs) < 100 {
		t.Fatalf("only %d corpus plans within 10 nodes", len(reqs))
	}
	for i := 0; i+1 < len(reqs); i++ {
		a, b := reqs[i], reqs[i+1]
		var got CompareResponse
		if hr := postJSON(t, ts.URL+"/v1/compare", CompareRequest{A: a, B: b}, &got); hr.StatusCode != http.StatusOK {
			t.Fatalf("pair %d: status %d", i, hr.StatusCode)
		}
		if want := core.TreeEditDistance(plans[i], plans[i+1]); got.EditDistance != want {
			t.Errorf("pair %d (%s, %s): EditDistance = %d, want %d", i, a.Dialect, b.Dialect, got.EditDistance, want)
		}
		if want := core.Similarity(plans[i], plans[i+1]); got.Similarity != want {
			t.Errorf("pair %d (%s, %s): Similarity = %v, want %v", i, a.Dialect, b.Dialect, got.Similarity, want)
		}
	}
}

func TestServeCampaignStatusStore(t *testing.T) {
	log, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.AppendPlan([32]byte{1}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: log})

	resp, err := http.Get(ts.URL + "/v1/campaign-status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status CampaignStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if !status.Attached || status.Dir != log.Dir() || status.Plans != 1 {
		t.Errorf("campaign status = %+v, want attached with 1 plan at %s", status, log.Dir())
	}
}

func TestServeCampaignStatusDetached(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/campaign-status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status CampaignStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Attached {
		t.Error("storeless server reports an attached campaign")
	}
}

func TestServeHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var h HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || h.Status != "ok" {
			t.Errorf("%s = %d %q, want 200 ok", path, resp.StatusCode, h.Status)
		}
	}
	postJSON(t, ts.URL+"/v1/convert", ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests.Convert != 1 || snap.Conversions.Converted != 1 {
		t.Errorf("metrics after one convert: %+v", snap.Requests)
	}
	if snap.Draining {
		t.Error("fresh server reports draining")
	}
}

func TestServeConvertPanicIsolation(t *testing.T) {
	s := New(Options{})
	bomb := s.isolate(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	bomb.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", rec.Code)
	}
	if s.Metrics().Panics != 1 {
		t.Errorf("panics counter = %d, want 1", s.Metrics().Panics)
	}
	// A panic after the response started cannot be answered; it must
	// still be contained and counted.
	late := s.isolate(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("too late")
	}))
	rec = httptest.NewRecorder()
	late.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("late panic rewrote the status to %d", rec.Code)
	}
	if s.Metrics().Panics != 2 {
		t.Errorf("panics counter = %d, want 2", s.Metrics().Panics)
	}
}

func TestServeDrainCleanExitBatch(t *testing.T) {
	s, url, errCh := startServer(t, Options{})
	// Real work through the real listener first.
	var resp BatchResponse
	postJSON(t, url+"/v1/batch-convert", BatchRequest{Records: []ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
	}}, &resp)
	if resp.Converted != 1 {
		t.Fatalf("batch converted %d, want 1", resp.Converted)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with no in-flight work failed: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	// The listener is gone: new connections must fail, not hang.
	c := &http.Client{Timeout: time.Second}
	if _, err := c.Get(url + "/healthz"); err == nil {
		t.Error("drained server still accepts connections")
	}
}

// mysqlShortRow is a MySQL tabular explain whose only row has fewer cells
// than its header. It once indexed past the row and panicked.
const mysqlShortRow = "+--\n|EXtrA|\n|"

// TestServeBatchSurvivesShortTableRow puts the short-row input at slot 40
// of a 64-record batch, so under -cpu=2 it lands on a pool worker
// goroutine, where a converter panic used to kill the process. The batch
// must be answered with one error item and 63 plans.
func TestServeBatchSurvivesShortTableRow(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := BatchRequest{Records: make([]ConvertRequest, 64)}
	for i := range req.Records {
		req.Records[i] = ConvertRequest{
			Dialect:    "postgresql",
			Serialized: fmt.Sprintf("Seq Scan on t%d  (cost=0.00..1.00 rows=%d width=4)", i, i+1),
		}
	}
	req.Records[40] = ConvertRequest{Dialect: "mysql", Serialized: mysqlShortRow}
	var resp BatchResponse
	if hr := postJSON(t, ts.URL+"/v1/batch-convert", req, &resp); hr.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", hr.StatusCode)
	}
	if resp.Converted != 63 || resp.Errors != 1 || len(resp.Results) != 64 {
		t.Fatalf("converted/errors/results = %d/%d/%d, want 63/1/64", resp.Converted, resp.Errors, len(resp.Results))
	}
	if resp.Results[40].Error == "" {
		t.Error("slot 40 carries no error")
	}
}

// TestServeDeadlineExpiredDuringDelay: a request whose deadline expires
// during the handler delay is refused with 503 by every single-plan
// endpoint, and each refusal counts as deadline_exceeded.
func TestServeDeadlineExpiredDuringDelay(t *testing.T) {
	s, ts := newTestServer(t, Options{
		HandlerDelay:   50 * time.Millisecond,
		RequestTimeout: 10 * time.Millisecond,
		CacheSize:      -1,
	})
	one := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}
	for path, body := range map[string]any{
		"/v1/convert":     one,
		"/v1/fingerprint": one,
		"/v1/compare":     CompareRequest{A: one, B: ConvertRequest{Dialect: "postgresql", Serialized: pgPlanJoin}},
	} {
		if resp := postJSON(t, ts.URL+path, body, nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s status = %d, want 503", path, resp.StatusCode)
		}
	}
	if got := s.Metrics().DeadlineExceeded; got != 3 {
		t.Errorf("deadline_exceeded = %d, want 3", got)
	}
}
