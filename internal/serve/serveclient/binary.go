package serveclient

// Binary wire support: the client-side half of the service's negotiated
// binary format. The binary calls send BinaryContentType request bodies,
// ask for binary responses via Accept, and decode the returned
// internal/codec blobs into plans — into a caller-supplied arena when
// one is provided, so a polling loop can reuse its allocations. Errors
// stay on the JSON wire (the server always answers non-2xx as JSON), so
// the retry/backoff discipline is identical to the JSON calls.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"uplan/internal/codec"
	"uplan/internal/core"
	"uplan/internal/serve"
)

// BinaryConvertResult is one conversion received on the binary wire,
// with the plan decoded from its codec blob.
type BinaryConvertResult struct {
	Dialect string
	// Fingerprint64 and Fingerprint are the structural fingerprints in
	// their natural binary forms (the JSON API strings, undecorated).
	Fingerprint64 uint64
	Fingerprint   [32]byte
	// Plan is the decoded unified plan. When ConvertBinary was given an
	// arena the plan's nodes live in it and are invalidated by its Reset.
	Plan *core.Plan
}

// ConvertBinary converts one native plan over the binary wire. ar may be
// nil (the plan then owns its allocations); a non-nil arena is the
// caller's reuse contract — the returned plan is valid only until the
// arena's next Reset.
func (c *Client) ConvertBinary(ctx context.Context, dialect, serialized string, ar *core.PlanArena) (*BinaryConvertResult, error) {
	body := serve.AppendBinaryConvertRequest(nil, serve.ConvertRequest{Dialect: dialect, Serialized: serialized})
	raw, err := c.call(ctx, "POST", "/v1/convert", body, serve.BinaryContentType)
	if err != nil {
		return nil, err
	}
	resp, err := serve.DecodeBinaryConvertResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("serveclient: decoding binary convert response: %w", err)
	}
	p, err := codec.DecodeInto(resp.PlanBlob, ar)
	if err != nil {
		return nil, fmt.Errorf("serveclient: decoding plan blob: %w", err)
	}
	return &BinaryConvertResult{
		Dialect:       resp.Dialect,
		Fingerprint64: resp.Fingerprint64,
		Fingerprint:   resp.Fingerprint,
		Plan:          p,
	}, nil
}

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
