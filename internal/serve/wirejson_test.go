package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/pipeline"
	"uplan/internal/sqlancer"
)

// generatedRequests explains perPath generated queries on each of the 17
// dialect/format converter paths, over the schema recipe of the
// benchmark's cold stream (oracle.ApplySchema with 3 tables of 30 rows).
func generatedRequests(tb testing.TB, seed int64, perPath int) []ConvertRequest {
	tb.Helper()
	var reqs []ConvertRequest
	paths := 0
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		g := sqlancer.New(seed)
		if err := oracle.ApplySchema(e, g, 3, 30); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		for _, f := range e.SupportedFormats() {
			if f == explain.FormatGraph {
				continue
			}
			paths++
			for q := 0; q < perPath; q++ {
				raw, err := e.Explain(g.Query(), f)
				if err != nil {
					tb.Fatalf("%s/%s query %d: %v", name, f, q, err)
				}
				reqs = append(reqs, ConvertRequest{Dialect: name, Serialized: raw})
			}
		}
	}
	if paths != 17 {
		tb.Fatalf("%d dialect/format paths, want 17", paths)
	}
	return reqs
}

// post sends body to path on h and returns the recorded response.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// TestServeConvertBodyMatchesReference is the differential guard on the
// appended convert and fingerprint bodies: over generated plans on all
// 17 converter paths, with the dialect sent in two spellings, each body
// must be byte-identical to json.Marshal of the response struct the
// service used to marshal, and a cache hit must replay the same bytes.
func TestServeConvertBodyMatchesReference(t *testing.T) {
	h := New(Options{}).Handler()
	for i, req := range generatedRequests(t, 7, 8) {
		if i%2 == 1 {
			req.Dialect = strings.ToUpper(req.Dialect[:1]) + req.Dialect[1:]
		}
		p, err := convert.Convert(req.Dialect, req.Serialized)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.Dialect, err)
		}
		planJSON, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		fp64 := strconv.FormatUint(p.Fingerprint64(core.FingerprintOptions{}), 10)
		fp := core.HexFingerprint(p.FingerprintBytes(core.FingerprintOptions{}))
		wantConvert, err := json.Marshal(ConvertResponse{Dialect: req.Dialect, Plan: planJSON, Fingerprint64: fp64, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		wantFingerprint, err := json.Marshal(FingerprintResponse{Dialect: req.Dialect, Fingerprint64: fp64, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		body := AppendConvertRequest(nil, req)
		for pass := 0; pass < 2; pass++ { // a miss, then a cache hit
			rec := post(h, "/v1/convert", body)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantConvert) {
				t.Fatalf("request %d (%s) pass %d: status %d, convert body differs from the reference\n got: %s\nwant: %s",
					i, req.Dialect, pass, rec.Code, rec.Body.Bytes(), wantConvert)
			}
		}
		rec := post(h, "/v1/fingerprint", body)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantFingerprint) {
			t.Fatalf("request %d (%s): status %d, fingerprint body %s, want %s",
				i, req.Dialect, rec.Code, rec.Body.Bytes(), wantFingerprint)
		}
	}
}

// TestServeBatchJSONMatchesReference is the JSON twin of
// TestServeBatchBinaryStreamMatchesReference: for the three-seed corpus
// in 64-record batches, with failing records mixed in, the handler's
// body must be byte-identical to json.Marshal of the BatchResponse the
// service used to build from MarshalJSON plans. The two timing fields
// are taken from the handler's own body.
func TestServeBatchJSONMatchesReference(t *testing.T) {
	var reqs []ConvertRequest
	for i, r := range corpusRequests(t, 42, 43, 44) {
		reqs = append(reqs, r)
		if i%17 == 5 {
			reqs = append(reqs, badRequests[i%len(badRequests)])
		}
	}
	h := New(Options{}).Handler()
	totalErrs := 0
	for start := 0; start < len(reqs); start += 64 {
		batch := reqs[start:min(start+64, len(reqs))]
		body, err := json.Marshal(BatchRequest{Records: batch})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(h, "/v1/batch-convert", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch at %d: status %d: %s", start, rec.Code, rec.Body.Bytes())
		}
		got := rec.Body.Bytes()
		var timing BatchResponse
		if err := json.Unmarshal(got, &timing); err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}

		want := referenceJSONBatchResponse(t, batch)
		want.ElapsedSeconds, want.PlansPerSec = timing.ElapsedSeconds, timing.PlansPerSec
		totalErrs += want.Errors
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("batch at %d: body (%d bytes) differs from the reference (%d bytes)", start, len(got), len(wantBody))
		}
	}
	if totalErrs == 0 {
		t.Fatal("no injected record failed; the error items went untested")
	}
}

// referenceJSONBatchResponse converts batch with pipeline.ConvertBatch and
// builds the BatchResponse struct the JSON handler used to marshal. The
// timing fields are left zero.
func referenceJSONBatchResponse(tb testing.TB, batch []ConvertRequest) BatchResponse {
	tb.Helper()
	records := make([]pipeline.Record, len(batch))
	for i, r := range batch {
		records[i] = pipeline.Record{Dialect: r.Dialect, Serialized: r.Serialized}
	}
	results, stats := pipeline.ConvertBatch(records, pipeline.Options{})
	resp := BatchResponse{Results: make([]BatchItem, len(results)), Converted: stats.Converted}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = BatchItem{Error: res.Err.Error()}
			resp.Errors++
			continue
		}
		planJSON, err := res.Plan.MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		resp.Results[i] = BatchItem{Plan: planJSON}
	}
	return resp
}

// TestServeRejectsTrailingJSON: a JSON request body must hold exactly one
// value. A valid body followed by garbage, or by a second object, is a
// 400 on every endpoint that takes a JSON body, before any conversion.
func TestServeRejectsTrailingJSON(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	one := string(AppendConvertRequest(nil, ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}))
	bodies := map[string]string{
		"/v1/convert":       one,
		"/v1/fingerprint":   one,
		"/v1/batch-convert": `{"records":[` + one + `]}`,
		"/v1/compare":       `{"a":` + one + `,"b":` + one + `}`,
	}
	for path, body := range bodies {
		if rec := post(h, path, []byte(body+" \n")); rec.Code != http.StatusOK {
			t.Fatalf("%s: valid body with trailing whitespace: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		for _, trailer := range []string{" garbage", body, "}", "\x00", "null"} {
			rec := post(h, path, []byte(body+trailer))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: body followed by %q: status %d, want 400", path, trailer, rec.Code)
			}
		}
	}
	if n := s.Metrics().Conversions.Records; n != 5 {
		t.Errorf("%d records converted, want 5 (only the four valid bodies)", n)
	}
}

// wireKeys are the keys of every JSON request shape.
var wireKeys = []string{"dialect", "serialized", "records", "a", "b"}

// referenceDecode is the reference JSON request decoder: encoding/json
// with unknown fields disallowed and nothing but whitespace allowed after
// the body, as the service decoded requests before the one-pass reader.
func referenceDecode[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return v, fmt.Errorf("trailing data: %v", err)
	}
	return v, nil
}

// exactKeys reports whether every object key in the valid JSON body is
// one of names with exact case.
func exactKeys(body []byte, names []string) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct{ object, wantKey bool }
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return true
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if key, ok := tok.(string); ok {
				if !slices.Contains(names, key) {
					return false
				}
				stack[n-1].wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
}

// coerceUTF8 replaces each byte of s that is not part of valid UTF-8
// with U+FFFD, as encoding/json does when it decodes a string.
func coerceUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r) // RuneError for an invalid byte
		i += size
	}
	return b.String()
}

func coerceRequest(r ConvertRequest) ConvertRequest {
	return ConvertRequest{Dialect: coerceUTF8(r.Dialect), Serialized: coerceUTF8(r.Serialized)}
}

// checkWireDecode compares one request decoder with the reference on
// body. The two documented divergences are applied to the reference's
// side: a body whose keys match only case-insensitively must be rejected,
// and decoded strings are compared after U+FFFD coercion.
func checkWireDecode[T any](t *testing.T, body []byte, decode func([]byte) (T, error), coerce func(T) T) {
	t.Helper()
	var got T
	var err error
	if alloc := allocated(func() { got, err = decode(body) }); alloc > maxJSONDecodeAlloc(len(body)) {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(body), alloc)
	}
	want, werr := referenceDecode[T](body)
	if werr == nil && !exactKeys(body, wireKeys) {
		werr = errors.New("a key matches only case-insensitively")
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("%T: reader err %v, reference err %v, body %q", got, err, werr, body)
	}
	if err == nil && !reflect.DeepEqual(coerce(got), want) {
		t.Fatalf("%T: reader decoded %+v, reference %+v, body %q", got, got, want, body)
	}
}

// maxJSONDecodeAlloc is the linear allocation budget for decoding an
// n-byte JSON request: the body's string copy and the strings unescaped
// from it (n each), plus the records slice, whose 32-byte elements take
// at least three input bytes each ("{}," or "null,") and whose append
// growth allocates under eight times the final length over its life,
// plus the measurement's own constant.
func maxJSONDecodeAlloc(n int) uint64 { return 2*uint64(n) + 8*32*uint64(n)/3 + 64<<10 }

// jsonWireSeeds are request bodies that hit each rule of the wire
// contract, and the two divergences from encoding/json.
var jsonWireSeeds = []string{
	`{"dialect":"postgresql","serialized":"Seq Scan on t1"}`,
	` {"serialized" : "a\"b\\cé😀\ud800x" , "dialect":"mysql"} `,
	`{"dialect":null,"serialized":"x","dialect":"tidb"}`,
	`null`, `{}`, `[]`, `"x"`, `1`, `{"dialect":1}`, `{"dialect":"a"`, `{"dialect":"a"}{}`,
	`{"dialect":"a"} x`, `{"extra":1}`, `{"Dialect":"a"}`, `{"DIALECT":"a","serialized":"b"}`,
	`{"dialect":"a\u0000b"}`, "{\"dialect\":\"\xff\xfe\"}", "{\"dialect\":\"a\x01\"}",
	`{"records":[{"dialect":"a"},null,{"serialized":"b"}]}`, `{"records":[]}`, `{"records":null}`,
	`{"records":[{"dialect":"a"},{"dialect":"b"}],"records":[{"serialized":"x"}],"records":[null,null]}`,
	`{"records":{}}`, `{"records":[1]}`, `{"Records":[]}`,
	`{"a":{"dialect":"x"},"b":null,"a":{"serialized":"y"}}`, `{"a":[],"b":{}}`, `{"A":{}}`,
}

// FuzzJSONWireRequest is the differential guard on the JSON request
// reader: for every body, each request shape's decoder (convert,
// batch, compare) must accept exactly when encoding/json with unknown
// fields disallowed and an EOF check accepts, and must then decode equal
// fields. Two divergences are allowed, both by design:
//   - keys match with exact case ({"Dialect": …} is an unknown field);
//   - strings with invalid UTF-8 pass through unchanged, where
//     encoding/json rewrites each bad byte to U+FFFD.
//
// The reader never panics, and its allocation stays linear in the body.
func FuzzJSONWireRequest(f *testing.F) {
	for _, s := range jsonWireSeeds {
		f.Add([]byte(s))
	}
	// Short plans keep the seeds, and the inputs mutated from them, small
	// enough to minimize quickly.
	for _, r := range []ConvertRequest{{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "mongodb", Serialized: "{\"queryPlanner\": {\"winningPlan\": {\"stage\": \"COLLSCAN\"}}}\n"}} {
		body := string(AppendConvertRequest(nil, r))
		f.Add([]byte(body))
		f.Add([]byte(`{"records":[` + body + `,{}]}`))
		f.Add([]byte(`{"a":` + body + `,"b":` + body + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, decodeConvertRequest, coerceRequest)
		checkWireDecode(t, body, decodeCompareRequest, func(r CompareRequest) CompareRequest {
			return CompareRequest{A: coerceRequest(r.A), B: coerceRequest(r.B)}
		})
		decodeBatch := func(b []byte) (BatchRequest, error) { return decodeBatchRequest(b, wireMaxItems) }
		checkWireDecode(t, body, decodeBatch, func(r BatchRequest) BatchRequest {
			for i, rec := range r.Records {
				r.Records[i] = coerceRequest(rec)
			}
			return r
		})
	})
}

// TestJSONWireDivergences pins the two documented differences from
// encoding/json, so the contract the README states stays true.
func TestJSONWireDivergences(t *testing.T) {
	if _, err := decodeConvertRequest([]byte(`{"Dialect":"postgresql"}`)); err == nil {
		t.Error("a key differing only in case was accepted")
	}
	req, err := decodeConvertRequest([]byte("{\"dialect\":\"a\xffb\"}"))
	if err != nil || req.Dialect != "a\xffb" {
		t.Errorf("invalid UTF-8 decoded as %q (%v), want the bytes unchanged", req.Dialect, err)
	}
}

// seedRecords picks the first seed-42 corpus record of each dialect, so
// the tests cover all nine engines at a few kilobytes each.
func seedRecords(tb testing.TB) []ConvertRequest {
	seen := map[string]bool{}
	var picked []ConvertRequest
	for _, r := range corpusRequests(tb, 42) {
		if !seen[r.Dialect] {
			seen[r.Dialect] = true
			picked = append(picked, r)
		}
	}
	return picked
}

// TestWireJSONCodecsMatchEncodingJSON checks the client half of the JSON
// wire: AppendConvertRequest writes json.Marshal's bytes, and the
// response decoders read what json.Marshal writes, skipping unknown
// fields.
func TestWireJSONCodecsMatchEncodingJSON(t *testing.T) {
	reqs := append(seedRecords(t), ConvertRequest{Dialect: "<&>\x00", Serialized: "\xff\xe2\x80\xa8"})
	for _, r := range reqs {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendConvertRequest(nil, r); !bytes.Equal(got, want) {
			t.Errorf("AppendConvertRequest = %s, want %s", got, want)
		}
	}
	conv := ConvertResponse{Dialect: "neo4j", Plan: json.RawMessage(`{"source":"neo4j","tree":null}`), Fingerprint64: "12", Fingerprint: "ab"}
	body, err := json.Marshal(conv)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body[:len(body)-1], `,"future":[1,{"x":null}]}`...)
	if got, err := DecodeConvertResponse(body); err != nil || !reflect.DeepEqual(got, conv) {
		t.Errorf("DecodeConvertResponse = %+v, %v; want %+v", got, err, conv)
	}
	fp := FingerprintResponse{Dialect: "tidb", Fingerprint64: "7", Fingerprint: "cd"}
	body, err = json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeFingerprintResponse(body); err != nil || got != fp {
		t.Errorf("DecodeFingerprintResponse = %+v, %v; want %+v", got, err, fp)
	}
	if _, err := DecodeConvertResponse(append(body, '{')); err == nil {
		t.Error("a response with trailing data was accepted")
	}
}

// BenchmarkWireJSONDecode decodes the JSON convert requests of the
// seed-42 corpus and the convert responses the service builds for them:
// the server's and the client's read of one round trip.
func BenchmarkWireJSONDecode(b *testing.B) {
	var reqs, resps [][]byte
	for _, r := range corpusRequests(b, 42) {
		reqs = append(reqs, AppendConvertRequest(nil, r))
		p, err := convert.Convert(r.Dialect, r.Serialized)
		if err != nil {
			b.Fatal(err)
		}
		var resp wireBuf
		resp.single(r.Dialect, p, true)
		resps = append(resps, resp.body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if _, err := decodeConvertRequest(reqs[k]); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeConvertResponse(resps[k]); err != nil {
			b.Fatal(err)
		}
	}
}
