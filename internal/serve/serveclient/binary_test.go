package serveclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"uplan/internal/core"
	"uplan/internal/serve"
)

const pgPlan = "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"

// realServer mounts a real serve.Server handler — the binary round-trip
// tests exercise the actual negotiation path, not a scripted stub.
func realServer(t *testing.T, opts serve.Options) (*serve.Server, *Client) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, New(ts.URL, Options{Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
}

// TestClientConvertBinaryRoundTrip: the binary call against a real server
// must return the same plan and fingerprints as the JSON call.
func TestClientConvertBinaryRoundTrip(t *testing.T) {
	_, c := realServer(t, serve.Options{})
	ctx := context.Background()

	ref, err := c.Convert(ctx, "postgresql", pgPlan)
	if err != nil {
		t.Fatalf("json convert: %v", err)
	}
	refPlan, err := core.ParseJSON(ref.Plan)
	if err != nil {
		t.Fatal(err)
	}

	ar := core.NewPlanArena()
	got, err := c.ConvertBinary(ctx, "postgresql", pgPlan, ar)
	if err != nil {
		t.Fatalf("binary convert: %v", err)
	}
	if got.Plan.MarshalText() != refPlan.MarshalText() {
		t.Error("binary-wire plan diverges from the JSON-wire plan")
	}
	if got.Dialect != "postgresql" {
		t.Errorf("Dialect = %q", got.Dialect)
	}
	if want := strconv.FormatUint(got.Fingerprint64, 10); want != ref.Fingerprint64 {
		t.Errorf("Fingerprint64 = %s, JSON said %s", want, ref.Fingerprint64)
	}
	if want := core.HexFingerprint(got.Fingerprint); want != ref.Fingerprint {
		t.Errorf("Fingerprint = %s, JSON said %s", want, ref.Fingerprint)
	}

	// Nil-arena calls stand alone.
	solo, err := c.ConvertBinary(ctx, "postgresql", pgPlan, nil)
	if err != nil {
		t.Fatalf("nil-arena binary convert: %v", err)
	}
	ar.Reset()
	if solo.Plan.MarshalText() != refPlan.MarshalText() {
		t.Error("nil-arena plan diverges after the shared arena reset")
	}
}

// TestClientBatchConvertBinaryRoundTrip: a mixed batch over the binary
// wire decodes per-slot plans and errors like the JSON batch call.
func TestClientBatchConvertBinaryRoundTrip(t *testing.T) {
	_, c := realServer(t, serve.Options{})
	records := []serve.ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "no-such-db", Serialized: "x"},
		{Dialect: "postgresql", Serialized: pgPlan},
	}
	got, err := c.BatchConvertBinary(context.Background(), records, core.NewPlanArena())
	if err != nil {
		t.Fatalf("binary batch: %v", err)
	}
	if len(got.Results) != 3 || got.Converted != 2 || got.Errors != 1 {
		t.Fatalf("batch = %d converted / %d errors over %d slots, want 2/1/3",
			got.Converted, got.Errors, len(got.Results))
	}
	for _, slot := range []int{0, 2} {
		if got.Results[slot].Plan == nil || got.Results[slot].Error != "" {
			t.Errorf("slot %d: %+v, want a plan", slot, got.Results[slot])
		}
	}
	if got.Results[1].Plan != nil || got.Results[1].Error == "" {
		t.Errorf("slot 1: %+v, want an error", got.Results[1])
	}
	if got.Results[0].Plan.MarshalText() != got.Results[2].Plan.MarshalText() {
		t.Error("identical records decoded to different plans")
	}
}

// TestClientBinaryRetriesShed: the binary call path shares the JSON
// call's retry discipline — the server's JSON 429 body is understood even
// though the request asked for a binary response.
func TestClientBinaryRetriesShed(t *testing.T) {
	var attempts atomic.Int64
	real := serve.New(serve.Options{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"shed","retry_after_seconds":1}`))
			return
		}
		real.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, Options{Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	got, err := c.ConvertBinary(context.Background(), "postgresql", pgPlan, nil)
	if err != nil {
		t.Fatalf("binary convert after shed: %v", err)
	}
	if got.Plan == nil {
		t.Fatal("no plan after retry")
	}
	if attempts.Load() != 2 {
		t.Errorf("made %d attempts, want 2 (429 then 200)", attempts.Load())
	}

	// Non-retryable conversion failure surfaces as a 422 APIError.
	_, err = c.ConvertBinary(context.Background(), "no-such-db", "x", nil)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want a 422 APIError", err)
	}
}

// TestClientReadsBinaryBodyWithoutContentLength: a binary response sent
// chunked (no Content-Length to size the read from) and one whose
// Content-Length promises more bytes than arrive take the growth and the
// short-read paths of the body reader.
func TestClientReadsBinaryBodyWithoutContentLength(t *testing.T) {
	body := serve.AppendBinaryBatchResponse(nil, serve.BinaryBatchResponse{
		Results: []serve.BinaryBatchItem{{Error: "conversion failed"}},
		Errors:  1,
	})
	stub := func(short bool) *Client {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", serve.BinaryContentType)
			if short {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)+10))
			} else {
				w.(http.Flusher).Flush() // commits the headers: chunked, no Content-Length
			}
			w.Write(body)
		}))
		t.Cleanup(ts.Close)
		return New(ts.URL, Options{MaxRetries: -1})
	}
	recs := []serve.ConvertRequest{{Dialect: "postgresql", Serialized: pgPlan}}

	res, err := stub(false).BatchConvertBinary(context.Background(), recs, nil)
	if err != nil {
		t.Fatalf("chunked binary response: %v", err)
	}
	if len(res.Results) != 1 || res.Results[0].Error != "conversion failed" || res.Errors != 1 {
		t.Fatalf("chunked binary response decoded to %+v", res)
	}
	if _, err := stub(true).BatchConvertBinary(context.Background(), recs, nil); err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}
}
