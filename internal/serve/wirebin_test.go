package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"uplan/internal/codec"
)

// TestWireBinaryRoundTrips pins encode→decode identity for both binary
// wire messages, the batch request and the batch response.
func TestWireBinaryRoundTrips(t *testing.T) {
	batch := BatchRequest{Records: []ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "mysql", Serialized: ""},
		{Dialect: "", Serialized: "x"},
	}}
	gotBatch, err := DecodeBinaryBatchRequest(AppendBinaryBatchRequest(nil, batch), wireMaxItems)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBatch.Records) != len(batch.Records) {
		t.Fatalf("batch request round trip lost records: %d != %d", len(gotBatch.Records), len(batch.Records))
	}
	for i := range batch.Records {
		if gotBatch.Records[i] != batch.Records[i] {
			t.Errorf("batch record %d = %+v, want %+v", i, gotBatch.Records[i], batch.Records[i])
		}
	}

	bresp := BinaryBatchResponse{
		Results: []BinaryBatchItem{
			{PlanBlob: []byte("blob-a")},
			{Error: "conversion failed"},
			{PlanBlob: nil}, // empty blob is a valid item
		},
		Converted:        2,
		Errors:           1,
		DeadlineExceeded: true,
		ElapsedSeconds:   1.5,
		PlansPerSec:      176.25,
	}
	gotB, err := DecodeBinaryBatchResponse(AppendBinaryBatchResponse(nil, bresp))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB.Results) != 3 || !bytes.Equal(gotB.Results[0].PlanBlob, []byte("blob-a")) ||
		gotB.Results[1].Error != "conversion failed" || len(gotB.Results[2].PlanBlob) != 0 {
		t.Errorf("batch response items diverge: %+v", gotB.Results)
	}
	if gotB.Converted != 2 || gotB.Errors != 1 || !gotB.DeadlineExceeded ||
		gotB.ElapsedSeconds != 1.5 || gotB.PlansPerSec != 176.25 {
		t.Errorf("batch response trailer diverges: %+v", gotB)
	}
}

// TestWireBinaryRejectsCorruption: every truncation of both message types
// fails with ErrWire, as do trailing garbage and unknown item tags.
func TestWireBinaryRejectsCorruption(t *testing.T) {
	msgs := map[string][]byte{
		"batch-request": AppendBinaryBatchRequest(nil, BatchRequest{Records: []ConvertRequest{
			{Dialect: "postgresql", Serialized: pgPlan}}}),
		"batch-response": AppendBinaryBatchResponse(nil, BinaryBatchResponse{
			Results: []BinaryBatchItem{{PlanBlob: []byte("blob")}, {Error: "e"}}, Converted: 1, Errors: 1}),
	}
	decode := map[string]func([]byte) error{
		"batch-request":  func(b []byte) error { _, err := DecodeBinaryBatchRequest(b, wireMaxItems); return err },
		"batch-response": func(b []byte) error { _, err := DecodeBinaryBatchResponse(b); return err },
	}
	for name, msg := range msgs {
		dec := decode[name]
		if err := dec(msg); err != nil {
			t.Fatalf("%s: intact message rejected: %v", name, err)
		}
		for i := 0; i < len(msg); i++ {
			if err := dec(msg[:i]); !errors.Is(err, ErrWire) {
				t.Errorf("%s truncated at %d: err = %v, want ErrWire", name, i, err)
			}
		}
		if err := dec(append(append([]byte{}, msg...), 0)); !errors.Is(err, ErrWire) {
			t.Errorf("%s with trailing byte: err = %v, want ErrWire", name, err)
		}
	}

	// Unknown batch item tag.
	bad := []byte{1, 0x7F, 0}
	if _, err := DecodeBinaryBatchResponse(bad); !errors.Is(err, ErrWire) {
		t.Errorf("unknown item tag: err = %v, want ErrWire", err)
	}
	// An empty error item would read back as a converted one.
	emptyErr := appendBatchTrailer([]byte{1, wireItemError, 0}, 0, 1, false, 0, 0)
	if _, err := DecodeBinaryBatchResponse(emptyErr); !errors.Is(err, ErrWire) {
		t.Errorf("empty error item: err = %v, want ErrWire", err)
	}
	// A non-minimal varint (0 as 0x80 0x00) would re-encode differently.
	if _, err := DecodeBinaryBatchRequest([]byte{0x80, 0x00}, wireMaxItems); !errors.Is(err, ErrWire) {
		t.Errorf("non-minimal count: err = %v, want ErrWire", err)
	}
	// A corrupt count must not drive a huge allocation.
	huge := appendUvarint(nil, 1<<40)
	if _, err := DecodeBinaryBatchRequest(huge, wireMaxItems); !errors.Is(err, ErrWire) {
		t.Errorf("huge batch count: err = %v, want ErrWire", err)
	}
}

func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// binaryPost posts body with the binary content type, asking for a binary
// response.
func binaryPost(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeBatchBinary drives /v1/batch-convert on the binary wire with a
// mixed good/bad batch, then with a malformed body.
func TestServeBatchBinary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := BatchRequest{Records: []ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "no-such-db", Serialized: "x"},
		{Dialect: "postgresql", Serialized: pgPlanJoin},
	}}
	resp, data := binaryPost(t, ts.URL+"/v1/batch-convert", AppendBinaryBatchRequest(nil, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch status = %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("binary batch Content-Type = %q, want %q", ct, BinaryContentType)
	}
	bresp, err := DecodeBinaryBatchResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 3 || bresp.Converted != 2 || bresp.Errors != 1 {
		t.Fatalf("binary batch results = %d converted / %d errors over %d slots, want 2/1/3",
			bresp.Converted, bresp.Errors, len(bresp.Results))
	}
	for _, slot := range []int{0, 2} {
		p, err := codec.DecodeInto(bresp.Results[slot].PlanBlob, nil)
		if err != nil {
			t.Fatalf("slot %d blob: %v", slot, err)
		}
		if p.Source != "postgresql" {
			t.Errorf("slot %d Source = %q", slot, p.Source)
		}
	}
	if bresp.Results[1].Error == "" {
		t.Error("bad-dialect slot carries no error")
	}

	// A malformed binary body is a 400 with a JSON error, like bad JSON.
	resp, data = binaryPost(t, ts.URL+"/v1/batch-convert", []byte{0xFF})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed binary body status = %d, want 400: %s", resp.StatusCode, data)
	}
	if ct := mediaType(resp.Header.Get("Content-Type")); ct != "application/json" {
		t.Errorf("binary-request error Content-Type = %q, want JSON (errors stay on the JSON wire)", ct)
	}
}

// TestServeConvertRefusesBinary: /v1/convert, /v1/fingerprint and
// /v1/compare are JSON only. A binary body on any of them gets a 415 JSON
// ErrorResponse that names /v1/batch-convert and counts as a bad request;
// on /v1/convert it leaves the cached JSON entry hitting, and a binary
// Accept header on a JSON body still gets the JSON body.
func TestServeConvertRefusesBinary(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}

	resp := postJSON(t, ts.URL+"/v1/convert", req, nil)
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("json convert %s = %q, want miss", CacheHeader, got)
	}

	body := AppendBinaryBatchRequest(nil, BatchRequest{Records: []ConvertRequest{req}})
	for _, path := range []string{"/v1/convert", "/v1/fingerprint", "/v1/compare"} {
		bad := s.Metrics().BadRequests
		bresp, data := binaryPost(t, ts.URL+path, body)
		if bresp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("binary %s status = %d, want 415: %s", path, bresp.StatusCode, data)
			continue
		}
		if ct := mediaType(bresp.Header.Get("Content-Type")); ct != "application/json" {
			t.Errorf("%s 415 Content-Type = %q, want JSON", path, ct)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "/v1/batch-convert") {
			t.Errorf("%s 415 body = %s (err %v), want an ErrorResponse naming /v1/batch-convert", path, data, err)
		}
		if got := s.Metrics().BadRequests; got != bad+1 {
			t.Errorf("bad_requests = %d after the %s 415, want %d", got, path, bad+1)
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/convert", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Accept", BinaryContentType)
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("repeat json convert %s = %q, want hit", CacheHeader, got)
	}
	if ct := mediaType(resp.Header.Get("Content-Type")); ct != "application/json" {
		t.Errorf("convert under a binary Accept: Content-Type = %q, want JSON", ct)
	}
}

// TestServeAcceptNegotiation pins the batch response negotiation rules:
// JSON stays the default under absent, wildcard, and unrelated Accept
// headers; only an explicit binary entry (case ignored) whose q is not 0
// switches formats.
func TestServeAcceptNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(BatchRequest{Records: []ConvertRequest{{Dialect: "postgresql", Serialized: pgPlan}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		accept string
		binary bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{"text/html, application/xhtml+xml", false},
		{BinaryContentType, true},
		{strings.ToUpper(BinaryContentType), true},
		{"application/json, " + BinaryContentType + ";q=0.9", true},
		{BinaryContentType + ";q=0.5", true},
		// q=0 means "not acceptable" (RFC 9110 §12.4.2): JSON, not binary.
		{BinaryContentType + ";q=0", false},
		{BinaryContentType + "; q=0.000", false},
		{"application/json, " + BinaryContentType + ";q=0", false},
	}
	for _, tc := range cases {
		req, err := http.NewRequest("POST", ts.URL+"/v1/batch-convert", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d", tc.accept, resp.StatusCode)
		}
		want := "application/json"
		if tc.binary {
			want = BinaryContentType
		}
		if got := resp.Header.Get("Content-Type"); got != want {
			t.Errorf("Accept %q: Content-Type = %q, want %q", tc.accept, got, want)
		}
	}
}
