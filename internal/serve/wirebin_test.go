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
	"uplan/internal/core"
)

// TestWireBinaryRoundTrips pins encode→decode identity for every binary
// wire message type.
func TestWireBinaryRoundTrips(t *testing.T) {
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}
	gotReq, err := DecodeBinaryConvertRequest(AppendBinaryConvertRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if gotReq != req {
		t.Errorf("convert request round trip = %+v, want %+v", gotReq, req)
	}

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

	resp := BinaryConvertResponse{
		Dialect:       "postgresql",
		Fingerprint64: 0xDEADBEEFCAFEF00D,
		PlanBlob:      []byte{1, 2, 3, 4, 5},
	}
	for i := range resp.Fingerprint {
		resp.Fingerprint[i] = byte(i)
	}
	gotResp, err := DecodeBinaryConvertResponse(AppendBinaryConvertResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Dialect != resp.Dialect || gotResp.Fingerprint64 != resp.Fingerprint64 ||
		gotResp.Fingerprint != resp.Fingerprint || !bytes.Equal(gotResp.PlanBlob, resp.PlanBlob) {
		t.Errorf("convert response round trip = %+v, want %+v", gotResp, resp)
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

// TestWireBinaryRejectsCorruption: every truncation of every message type
// fails with ErrWire, as do trailing garbage and unknown item tags.
func TestWireBinaryRejectsCorruption(t *testing.T) {
	msgs := map[string][]byte{
		"convert-request": AppendBinaryConvertRequest(nil, ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}),
		"batch-request": AppendBinaryBatchRequest(nil, BatchRequest{Records: []ConvertRequest{
			{Dialect: "postgresql", Serialized: pgPlan}}}),
		"convert-response": AppendBinaryConvertResponse(nil, BinaryConvertResponse{
			Dialect: "postgresql", Fingerprint64: 7, PlanBlob: []byte("blob")}),
		"batch-response": AppendBinaryBatchResponse(nil, BinaryBatchResponse{
			Results: []BinaryBatchItem{{PlanBlob: []byte("blob")}, {Error: "e"}}, Converted: 1, Errors: 1}),
	}
	decode := map[string]func([]byte) error{
		"convert-request":  func(b []byte) error { _, err := DecodeBinaryConvertRequest(b); return err },
		"batch-request":    func(b []byte) error { _, err := DecodeBinaryBatchRequest(b, wireMaxItems); return err },
		"convert-response": func(b []byte) error { _, err := DecodeBinaryConvertResponse(b); return err },
		"batch-response":   func(b []byte) error { _, err := DecodeBinaryBatchResponse(b); return err },
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

// TestServeConvertBinary drives /v1/convert end to end on the binary
// wire: binary request in, binary response out, and the decoded blob must
// match the JSON path's plan and fingerprints exactly.
func TestServeConvertBinary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}

	// Reference conversion through the JSON path.
	var ref ConvertResponse
	if resp := postJSON(t, ts.URL+"/v1/convert", req, &ref); resp.StatusCode != http.StatusOK {
		t.Fatalf("json convert status = %d", resp.StatusCode)
	}

	resp, data := binaryPost(t, ts.URL+"/v1/convert", AppendBinaryConvertRequest(nil, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary convert status = %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("binary convert Content-Type = %q, want %q", ct, BinaryContentType)
	}
	bresp, err := DecodeBinaryConvertResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codec.DecodeInto(bresp.PlanBlob, nil)
	if err != nil {
		t.Fatalf("decoding returned plan blob: %v", err)
	}
	refPlan, err := core.ParseJSON(ref.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if p.MarshalText() != refPlan.MarshalText() {
		t.Error("binary-wire plan diverges from the JSON-wire plan")
	}
	if want := core.HexFingerprint(bresp.Fingerprint); want != ref.Fingerprint {
		t.Errorf("binary fingerprint %s, JSON fingerprint %s", want, ref.Fingerprint)
	}

	// A malformed binary body is a 400 with a JSON error, like bad JSON.
	resp, data = binaryPost(t, ts.URL+"/v1/convert", []byte{0xFF})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed binary body status = %d, want 400: %s", resp.StatusCode, data)
	}
	if ct := mediaType(resp.Header.Get("Content-Type")); ct != "application/json" {
		t.Errorf("binary-request error Content-Type = %q, want JSON (errors stay on the JSON wire)", ct)
	}
}

// TestServeBatchBinary drives /v1/batch-convert on the binary wire with a
// mixed good/bad batch.
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
}

// TestServeCacheKeysOnContentType is the cache regression guard: the same
// input bytes requested as JSON and as binary must be two cache entries.
// A binary response replayed to a JSON client would hand it an undecodable
// body with a "hit" header — exactly the bug the format-folded key
// prevents.
func TestServeCacheKeysOnContentType(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}

	// JSON first: miss.
	resp := postJSON(t, ts.URL+"/v1/convert", req, nil)
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("json convert %s = %q, want miss", CacheHeader, got)
	}

	// Same input on the binary wire: must be a miss — the JSON body in
	// the cache is not this request's answer.
	bresp, data := binaryPost(t, ts.URL+"/v1/convert", AppendBinaryConvertRequest(nil, req))
	if got := bresp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("binary convert %s = %q, want miss (cache replayed across formats)", CacheHeader, got)
	}
	if _, err := DecodeBinaryConvertResponse(data); err != nil {
		t.Fatalf("binary response does not decode: %v", err)
	}

	// Each format now hits within itself, with its own content type.
	resp = postJSON(t, ts.URL+"/v1/convert", req, nil)
	if got := resp.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("repeat json convert %s = %q, want hit", CacheHeader, got)
	}
	if ct := mediaType(resp.Header.Get("Content-Type")); ct != "application/json" {
		t.Errorf("json hit Content-Type = %q", ct)
	}
	bresp, data = binaryPost(t, ts.URL+"/v1/convert", AppendBinaryConvertRequest(nil, req))
	if got := bresp.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("repeat binary convert %s = %q, want hit", CacheHeader, got)
	}
	if ct := bresp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("binary hit Content-Type = %q", ct)
	}
	if _, err := DecodeBinaryConvertResponse(data); err != nil {
		t.Fatalf("cached binary response does not decode: %v", err)
	}
}

// TestServeAcceptNegotiation pins the negotiation rules: JSON stays the
// default under absent, wildcard, and unrelated Accept headers; only an
// explicit binary entry (case ignored) whose q is not 0 switches formats.
func TestServeAcceptNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(ConvertRequest{Dialect: "postgresql", Serialized: pgPlan})
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
		req, err := http.NewRequest("POST", ts.URL+"/v1/convert", bytes.NewReader(body))
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
