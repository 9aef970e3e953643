package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ErrNoCheckpoint is returned by the checkpoint client calls when the
// job exists but has not produced a frame (HTTP 204).
var ErrNoCheckpoint = errors.New("server: no checkpoint available")

// Client is the typed HTTP client for one edmd server: every endpoint
// the API exposes, with JSON decoding and error mapping done once.
// It performs no retries — callers that need retry/backoff semantics
// (the dispatch coordinator) layer them on top. Safe for concurrent
// use. edmctl and the e2e test suite both drive edmd through it, so
// the wire shapes are pinned by one consumer-grade implementation.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for the server at baseURL. A nil hc uses a
// plain http.Client (per-call deadlines come from contexts).
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: hc}
}

// BaseURL returns the server's root URL.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response decoded into an error: the status
// code, the envelope's machine-readable code and message, and the
// server's retry hint. Unwrap maps Code back onto the server's
// sentinel, so errors.Is(err, server.ErrQueueFull) holds across the
// wire exactly as it does in-process.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.StatusCode, e.Message)
}

// Unwrap exposes the sentinel the envelope's code encodes (nil for
// codes this client build does not know).
func (e *APIError) Unwrap() error { return sentinelFor(e.Code) }

// Temporary reports whether the failure is worth retrying (queue full,
// server error, or shutdown in progress).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// Health probes GET /healthz. A draining server (503 with a JSON body)
// decodes successfully with OK() == false.
func (c *Client) Health(ctx context.Context) (HealthInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return HealthInfo{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return HealthInfo{}, err
	}
	defer resp.Body.Close()
	var h HealthInfo
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return HealthInfo{}, fmt.Errorf("server: bad healthz body: %w", err)
	}
	return h, nil
}

// Version fetches GET /v1/version.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.json(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Submit posts one run request and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, req RunRequest) (JobStatus, error) {
	var st JobStatus
	err := c.json(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// Status fetches one job's view; the result is attached once the job
// is done.
func (c *Client) Status(ctx context.Context, id string) (RunView, error) {
	var view RunView
	err := c.json(ctx, http.MethodGet, "/v1/runs/"+id, nil, &view)
	return view, err
}

// Cancel requests cancellation of a job (best effort: a terminal job
// is left as is) and returns its status after the request.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.json(ctx, http.MethodDelete, "/v1/runs/"+id, nil, &st)
	return st, err
}

// LatestCheckpoint fetches the newest already-written frame (GET)
// without perturbing the run's cadence; ErrNoCheckpoint when the run
// has not checkpointed yet.
func (c *Client) LatestCheckpoint(ctx context.Context, id string) ([]byte, error) {
	return c.frame(ctx, http.MethodGet, "/v1/runs/"+id+"/checkpoint")
}

// frame performs one binary checkpoint-frame exchange.
func (c *Client) frame(ctx context.Context, method, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, ErrNoCheckpoint
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return io.ReadAll(resp.Body)
	default:
		return nil, decodeAPIError(resp)
	}
}

// json performs one JSON request/response exchange; non-2xx responses
// come back as *APIError.
func (c *Client) json(ctx context.Context, method, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError: the
// ErrorBody envelope's code and message when the body parses (with a
// raw-text fallback for proxies and panics that bypass the handler),
// and the retry hint from a valid Retry-After header, else from the
// envelope's retry_after_s.
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	e := &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var body ErrorBody
	if json.Unmarshal(raw, &body) == nil && body.Code != "" {
		e.Code = body.Code
		e.Message = body.Message
		e.RetryAfter = time.Duration(body.RetryAfterS) * time.Second
	}
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
		e.RetryAfter = d
	}
	return e
}

// parseRetryAfter reads a Retry-After header as RFC 9110 delay-seconds:
// a non-negative integer. Anything else (absent, signed, fractional,
// an HTTP-date) reports false.
func parseRetryAfter(v string) (time.Duration, bool) {
	secs, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
