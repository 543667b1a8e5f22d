package serveclient

// Binary wire support: the client-side half of the service's negotiated
// binary format, which carries batches only. BatchConvertBinary sends a
// BinaryContentType request body, asks for a binary response via Accept,
// and decodes the returned internal/codec blobs into plans — into a
// caller-supplied arena when one is provided, so a polling loop can
// reuse its allocations. One plan is a batch of one record; its
// fingerprints are those of the decoded plan, since the codec round
// trip is lossless. Errors stay on the JSON wire (the server always
// answers non-2xx as JSON), so the retry/backoff discipline is identical
// to the JSON calls.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"uplan/internal/codec"
	"uplan/internal/core"
	"uplan/internal/serve"
)

// BinaryBatchItem is one record's outcome from BatchConvertBinary.
// Exactly one of Plan and Error is set.
type BinaryBatchItem struct {
	Plan  *core.Plan
	Error string
}

// BinaryBatchResult is a batch conversion received on the binary wire,
// indexed like the request's records.
type BinaryBatchResult struct {
	Results          []BinaryBatchItem
	Converted        int
	Errors           int
	DeadlineExceeded bool
	ElapsedSeconds   float64
	PlansPerSec      float64
}

// BatchConvertBinary converts a corpus over the binary wire. All decoded
// plans share ar when it is non-nil — they are collectively invalidated
// by its Reset; a nil arena leaves each plan independently owned.
func (c *Client) BatchConvertBinary(ctx context.Context, records []serve.ConvertRequest, ar *core.PlanArena) (*BinaryBatchResult, error) {
	// AppendBinaryBatchRequest sizes the body exactly before appending.
	body := serve.AppendBinaryBatchRequest(nil, serve.BatchRequest{Records: records})
	raw, err := c.call(ctx, "POST", "/v1/batch-convert", body, serve.BinaryContentType)
	if err != nil {
		return nil, err
	}
	resp, err := serve.DecodeBinaryBatchResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("serveclient: decoding binary batch response: %w", err)
	}
	out := &BinaryBatchResult{
		Results:          make([]BinaryBatchItem, len(resp.Results)),
		Converted:        resp.Converted,
		Errors:           resp.Errors,
		DeadlineExceeded: resp.DeadlineExceeded,
		ElapsedSeconds:   resp.ElapsedSeconds,
		PlansPerSec:      resp.PlansPerSec,
	}
	for i, it := range resp.Results {
		if it.Error != "" {
			out.Results[i] = BinaryBatchItem{Error: it.Error}
			continue
		}
		p, err := codec.DecodeInto(it.PlanBlob, ar)
		if err != nil {
			return nil, fmt.Errorf("serveclient: decoding batch plan blob %d: %w", i, err)
		}
		out.Results[i] = BinaryBatchItem{Plan: p}
	}
	return out, nil
}

// maxPresizedBody bounds how much a response's Content-Length may make
// readBody allocate up front; a larger or absent length falls back to
// growing the buffer as the bytes arrive.
const maxPresizedBody = 16 << 20

// readBody reads a whole response body, in one exactly sized allocation
// when the Content-Length header is present and plausible.
func readBody(hr *http.Response) ([]byte, error) {
	n := hr.ContentLength
	if n < 0 || n > maxPresizedBody {
		return io.ReadAll(hr.Body)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(hr.Body, raw); err != nil {
		return nil, err
	}
	return raw, nil
}
