// Package serveclient is the retrying client for the uplan plan service
// (internal/serve). It speaks the service's JSON wire types and bakes in
// the retry discipline the server's backpressure contract expects:
// shed responses (429) and transient unavailability (503) are retried
// with exponential backoff plus jitter, honoring the server's
// Retry-After hint; other 4xx/5xx statuses and conversion failures are
// returned immediately — retrying a 422 re-parses the same broken plan.
//
// All request bodies are buffered byte slices, so every retry replays an
// identical request; the context bounds the whole call including every
// backoff sleep.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"uplan/internal/serve"
)

// Options tune a Client. The zero value retries 3 times with a 100ms
// initial backoff.
type Options struct {
	// HTTPClient is the transport; nil means a client with Timeout equal
	// to RequestTimeout.
	HTTPClient *http.Client
	// MaxRetries is how many times a retryable failure is retried (so a
	// call makes at most MaxRetries+1 attempts). Negative disables
	// retries; zero means DefaultMaxRetries.
	MaxRetries int
	// Backoff is the first retry's base delay, doubled per attempt and
	// capped at MaxBackoff; the actual sleep is jittered uniformly in
	// [Backoff/2, Backoff). A server Retry-After hint overrides the
	// exponential base (jitter still applies). Zero means DefaultBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// RequestTimeout bounds one attempt when HTTPClient is nil. Zero
	// means DefaultRequestTimeout.
	RequestTimeout time.Duration
}

// Defaults for the zero Options value.
const (
	DefaultMaxRetries     = 3
	DefaultBackoff        = 100 * time.Millisecond
	DefaultMaxBackoff     = 5 * time.Second
	DefaultRequestTimeout = 30 * time.Second
)

// Client calls one plan service instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts Options
}

// New returns a client for the service rooted at baseURL (e.g.
// "http://127.0.0.1:8091", no trailing slash required).
func New(baseURL string, opts Options) *Client {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: opts.RequestTimeout}
	}
	return &Client{base: trimSlash(baseURL), hc: hc, opts: opts}
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// APIError is a non-2xx service response.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Retryable reports whether the response is worth retrying: shed (429)
// and unavailable (503) are transient by the server's own contract.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Convert converts one native plan.
func (c *Client) Convert(ctx context.Context, dialect, serialized string) (*serve.ConvertResponse, error) {
	return postConvertRequest(ctx, c, "/v1/convert", dialect, serialized, serve.DecodeConvertResponse)
}

// BatchConvert converts a corpus through the service's worker pool.
func (c *Client) BatchConvert(ctx context.Context, records []serve.ConvertRequest) (*serve.BatchResponse, error) {
	var resp serve.BatchResponse
	err := c.callJSON(ctx, "POST", "/v1/batch-convert", serve.BatchRequest{Records: records}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Fingerprint converts one native plan and returns only its structural
// fingerprints.
func (c *Client) Fingerprint(ctx context.Context, dialect, serialized string) (*serve.FingerprintResponse, error) {
	return postConvertRequest(ctx, c, "/v1/fingerprint", dialect, serialized, serve.DecodeFingerprintResponse)
}

// postConvertRequest posts one ConvertRequest body to path and decodes
// the response with decode: the convert and fingerprint round trip,
// through the service's own JSON codecs instead of encoding/json.
func postConvertRequest[T any](ctx context.Context, c *Client, path, dialect, serialized string, decode func([]byte) (T, error)) (*T, error) {
	// Sized so that quoting real plans (their newlines and quotes) fits
	// without regrowing: on the benchmark corpora it adds at most 16%.
	body := make([]byte, 0, len(`{"dialect":"","serialized":""}`)+len(dialect)+len(serialized)*5/4+64)
	body = serve.AppendConvertRequest(body, serve.ConvertRequest{Dialect: dialect, Serialized: serialized})
	raw, err := c.call(ctx, "POST", path, body, jsonContentType)
	if err != nil {
		return nil, err
	}
	resp, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("serveclient: decoding %s response: %w", path, err)
	}
	return &resp, nil
}

// Compare converts two native plans and returns their structural diff.
func (c *Client) Compare(ctx context.Context, a, b serve.ConvertRequest) (*serve.CompareResponse, error) {
	var resp serve.CompareResponse
	err := c.callJSON(ctx, "POST", "/v1/compare", serve.CompareRequest{A: a, B: b}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// CampaignStatus reports the attached campaign store's state.
func (c *Client) CampaignStatus(ctx context.Context) (*serve.CampaignStatusResponse, error) {
	var resp serve.CampaignStatusResponse
	if err := c.callJSON(ctx, "GET", "/v1/campaign-status", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics snapshots the service's counters.
func (c *Client) Metrics(ctx context.Context) (*serve.MetricsSnapshot, error) {
	var resp serve.MetricsSnapshot
	if err := c.callJSON(ctx, "GET", "/metrics", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthy probes /healthz (liveness) without retrying.
func (c *Client) Healthy(ctx context.Context) (*serve.HealthResponse, error) {
	return c.probe(ctx, "/healthz")
}

// Ready probes /readyz (readiness) without retrying: a draining server's
// 503 is the answer, not a transient to paper over.
func (c *Client) Ready(ctx context.Context) (*serve.HealthResponse, error) {
	return c.probe(ctx, "/readyz")
}

// probe runs one health probe with no retries.
func (c *Client) probe(ctx context.Context, path string) (*serve.HealthResponse, error) {
	var resp serve.HealthResponse
	raw, err := c.attempt(ctx, "GET", path, nil, "")
	if err == nil {
		err = decodeJSON(path, raw, &resp)
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// jsonContentType is the media type of the JSON wire's request bodies.
const jsonContentType = "application/json"

// callJSON runs call with req marshaled by encoding/json (no body when
// req is nil) and decodes the response into out.
func (c *Client) callJSON(ctx context.Context, method, path string, req, out any) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("serveclient: encoding request: %w", err)
		}
	}
	raw, err := c.call(ctx, method, path, body, jsonContentType)
	if err != nil {
		return err
	}
	return decodeJSON(path, raw, out)
}

func decodeJSON(path string, raw []byte, out any) error {
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("serveclient: decoding %s response: %w", path, err)
	}
	return nil
}

// call runs one API call with the retry-backoff-jitter loop and returns
// the 2xx response body. contentType names the request body's wire
// format; the binary wire also asks for a binary response.
func (c *Client) call(ctx context.Context, method, path string, body []byte, contentType string) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, err := c.attempt(ctx, method, path, body, contentType)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		var apiErr *APIError
		retryable := !errors.As(lastErr, &apiErr) || apiErr.Retryable()
		if !retryable || attempt >= c.opts.MaxRetries {
			return nil, lastErr
		}
		// Context errors are final — the caller's deadline, not the
		// server, ended the call.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var hint time.Duration
		if apiErr != nil {
			hint = apiErr.RetryAfter
		}
		if err := sleepBackoff(ctx, c.opts.Backoff, c.opts.MaxBackoff, attempt, hint); err != nil {
			return nil, errors.Join(err, lastErr)
		}
	}
}

// attempt performs a single HTTP round trip, reading the whole 2xx body
// (the wire decoders need the complete message).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, contentType string) (raw []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("serveclient: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if contentType == serve.BinaryContentType {
		req.Header.Set("Accept", serve.BinaryContentType)
	}
	hr, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serveclient: %s %s: %w", method, path, err)
	}
	defer func() {
		// Drain so the transport can reuse the connection; a failed drain
		// only costs that reuse.
		_, _ = io.Copy(io.Discard, hr.Body)
		if cerr := hr.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if hr.StatusCode/100 != 2 {
		return nil, decodeAPIError(hr)
	}
	raw, err = readBody(hr)
	if err != nil {
		return nil, fmt.Errorf("serveclient: reading %s response: %w", path, err)
	}
	return raw, nil
}

// decodeAPIError turns a non-2xx response into an *APIError, reading the
// ErrorResponse body and Retry-After header.
func decodeAPIError(hr *http.Response) error {
	apiErr := &APIError{Status: hr.StatusCode}
	var er serve.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(hr.Body, 1<<16)).Decode(&er); err == nil && er.Error != "" {
		apiErr.Message = er.Error
		if er.RetryAfterSeconds > 0 {
			apiErr.RetryAfter = time.Duration(er.RetryAfterSeconds) * time.Second
		}
	} else {
		apiErr.Message = "(no error body)"
	}
	if ra := hr.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// sleepBackoff waits out one retry delay: the server's hint when present,
// otherwise base<<attempt capped at max — jittered uniformly into
// [d/2, d) either way, so a shed storm of clients does not retry in
// lockstep.
func sleepBackoff(ctx context.Context, base, max time.Duration, attempt int, hint time.Duration) error {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	if hint > 0 {
		d = hint
		if d > max {
			d = max
		}
	}
	d = d/2 + rand.N(d/2+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
