package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/codec"
	"uplan/internal/pipeline"
)

// corpusRequests returns bench.Corpus for each seed as convert requests.
func corpusRequests(tb testing.TB, seeds ...int64) []ConvertRequest {
	tb.Helper()
	var reqs []ConvertRequest
	for _, seed := range seeds {
		recs, err := bench.Corpus(seed)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range recs {
			reqs = append(reqs, ConvertRequest{Dialect: r.Dialect, Serialized: r.Serialized})
		}
	}
	return reqs
}

// badRequests are records that fail conversion: unknown dialect, text
// that is no plan, and truncated JSON.
var badRequests = []ConvertRequest{
	{Dialect: "no-such-db", Serialized: "x"},
	{Dialect: "postgresql", Serialized: "not a plan ((("},
	{Dialect: "mongodb", Serialized: `{"queryPlanner": {`},
}

// referenceBatchResponse converts batch with pipeline.ConvertBatch and
// builds its binary response without streaming: a fresh codec.Encode blob
// per converted plan. The timing fields are left zero.
func referenceBatchResponse(tb testing.TB, batch []ConvertRequest) BinaryBatchResponse {
	tb.Helper()
	records := make([]pipeline.Record, len(batch))
	for i, r := range batch {
		records[i] = pipeline.Record{Dialect: r.Dialect, Serialized: r.Serialized}
	}
	results, _ := pipeline.ConvertBatch(records, pipeline.Options{})
	resp := BinaryBatchResponse{Results: make([]BinaryBatchItem, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = BinaryBatchItem{Error: res.Err.Error()}
			resp.Errors++
			continue
		}
		blob, err := codec.Encode(res.Plan)
		if err != nil {
			tb.Fatal(err)
		}
		resp.Results[i] = BinaryBatchItem{PlanBlob: blob}
		resp.Converted++
	}
	return resp
}

// TestServeBatchBinaryStreamMatchesReference is the differential guard on
// the streamed batch response: for the three-seed corpus in 64-record
// batches, with failing records mixed in, the handler's body must be
// byte-identical to AppendBinaryBatchResponse over fresh codec.Encode
// blobs of the same conversions. The two timing fields are taken from
// the handler's own trailer; everything else is recomputed.
func TestServeBatchBinaryStreamMatchesReference(t *testing.T) {
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
		req := httptest.NewRequest("POST", "/v1/batch-convert",
			bytes.NewReader(AppendBinaryBatchRequest(nil, BatchRequest{Records: batch})))
		req.Header.Set("Content-Type", BinaryContentType)
		req.Header.Set("Accept", BinaryContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch at %d: status %d: %s", start, rec.Code, rec.Body.Bytes())
		}
		got := rec.Body.Bytes()
		dec, err := DecodeBinaryBatchResponse(got)
		if err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}

		want := referenceBatchResponse(t, batch)
		want.ElapsedSeconds, want.PlansPerSec = dec.ElapsedSeconds, dec.PlansPerSec
		totalErrs += want.Errors
		if wantBody := AppendBinaryBatchResponse(nil, want); !bytes.Equal(got, wantBody) {
			t.Fatalf("batch at %d: streamed body (%d bytes) differs from the reference encoding (%d bytes)",
				start, len(got), len(wantBody))
		}
	}
	if totalErrs == 0 {
		t.Fatal("no injected record failed; the error items went untested")
	}
}

// TestServeBatchBinaryConcurrentPooledBuffers drives binary batches from
// several clients at once over a real connection, so request and response
// buffers cycle through the pool between goroutines: every response must
// still equal its reference encoding (run it under -race).
func TestServeBatchBinaryConcurrentPooledBuffers(t *testing.T) {
	reqs := corpusRequests(t, 42)
	var bodies [][]byte
	var wants []BinaryBatchResponse
	for start := 0; start+16 <= len(reqs); start += 16 {
		batch := append(reqs[start:start+16:start+16], badRequests[start%len(badRequests)])
		bodies = append(bodies, AppendBinaryBatchRequest(nil, BatchRequest{Records: batch}))
		wants = append(wants, referenceBatchResponse(t, batch))
	}
	_, ts := newTestServer(t, Options{})
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(bodies); i += clients {
				if err := checkBinaryBatch(ts.URL, bodies[i], wants[i]); err != nil {
					t.Errorf("client %d batch %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkBinaryBatch posts one binary batch and compares the response with
// want, taking the two timing fields from the response.
func checkBinaryBatch(url string, body []byte, want BinaryBatchResponse) error {
	req, err := http.NewRequest("POST", url+"/v1/batch-convert", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, got)
	}
	dec, err := DecodeBinaryBatchResponse(got)
	if err != nil {
		return err
	}
	want.ElapsedSeconds, want.PlansPerSec = dec.ElapsedSeconds, dec.PlansPerSec
	if !bytes.Equal(got, AppendBinaryBatchResponse(nil, want)) {
		return errors.New("response differs from the reference encoding")
	}
	return nil
}

// TestWireBatchCountBoundedByInput is the regression guard for count
// pre-sizing: a three-byte request declaring 2^20 records, or a
// four-byte response declaring 2^20 results, must fail with ErrWire
// without allocating storage for the declared count.
func TestWireBatchCountBoundedByInput(t *testing.T) {
	count := appendUvarint(nil, wireMaxItems)
	cases := []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"request", count, func(b []byte) error { _, err := DecodeBinaryBatchRequest(b); return err }},
		{"response", append(count, 0), func(b []byte) error { _, err := DecodeBinaryBatchResponse(b); return err }},
	}
	for _, c := range cases {
		var err error
		alloc := allocated(func() { err = c.decode(c.data) })
		if !errors.Is(err, ErrWire) {
			t.Errorf("%s of %d bytes: err = %v, want ErrWire", c.name, len(c.data), err)
		}
		if alloc >= 64<<10 {
			t.Errorf("%s of %d bytes allocated %d bytes, want under 64 KiB", c.name, len(c.data), alloc)
		}
	}
}

// allocated returns the bytes the process heap-allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
