package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edm"
)

// TestRetryAfterParsing pins the client's one Retry-After parser: the
// header counts only as RFC 9110 delay-seconds (a non-negative
// integer); for anything else the envelope's retry_after_s stands.
func TestRetryAfterParsing(t *testing.T) {
	const envelope = `{"code":"queue_full","message":"full","retry_after_s":2}`
	for _, tc := range []struct {
		header string
		body   string
		want   time.Duration
	}{
		{"", "", 0},
		{"1", "", time.Second},
		{"30", "", 30 * time.Second},
		{"-5", "", 0},
		{"soon", "", 0},
		{"1.5", "", 0}, // RFC 9110 delay-seconds is an integer
		{"+5", "", 0},
		{"", envelope, 2 * time.Second},
		{"7", envelope, 7 * time.Second},
		{"-5", envelope, 2 * time.Second},
		{"1.5", envelope, 2 * time.Second},
	} {
		resp := &http.Response{
			StatusCode: http.StatusTooManyRequests,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(tc.body)),
		}
		if tc.header != "" {
			resp.Header.Set("Retry-After", tc.header)
		}
		var ae *APIError
		if !errors.As(decodeAPIError(resp), &ae) {
			t.Fatalf("decodeAPIError did not return an *APIError")
		}
		if ae.RetryAfter != tc.want {
			t.Errorf("Retry-After %q with body %q: RetryAfter = %v, want %v", tc.header, tc.body, ae.RetryAfter, tc.want)
		}
	}
}

// TestErrorCodeTable pins the code ↔ status ↔ sentinel mapping both
// ways: encoding picks the right code and status for each sentinel,
// and decoding maps each code back to the sentinel it came from.
func TestErrorCodeTable(t *testing.T) {
	cases := []struct {
		sentinel error
		code     string
		status   int
	}{
		{ErrQueueFull, "queue_full", http.StatusTooManyRequests},
		{ErrLoadShed, "load_shed", http.StatusTooManyRequests},
		{ErrMaxWait, "max_wait_exceeded", http.StatusTooManyRequests},
		{ErrShuttingDown, "shutting_down", http.StatusServiceUnavailable},
		{ErrUnknownJob, "not_found", http.StatusNotFound},
		{ErrCheckpointTimeout, "checkpoint_timeout", http.StatusRequestTimeout},
		{edm.ErrUnknownWorkload, "unknown_workload", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			code, status := codeFor(tc.sentinel)
			if code != tc.code || status != tc.status {
				t.Errorf("codeFor(%v) = (%q, %d), want (%q, %d)", tc.sentinel, code, status, tc.code, tc.status)
			}
			// Wrapped forms map the same.
			code, status = codeFor(withRetryHint(tc.sentinel, 2*time.Second))
			if code != tc.code || status != tc.status {
				t.Errorf("codeFor(wrapped %v) = (%q, %d), want (%q, %d)", tc.sentinel, code, status, tc.code, tc.status)
			}
			if got := sentinelFor(tc.code); !errors.Is(got, tc.sentinel) {
				t.Errorf("sentinelFor(%q) = %v, want %v", tc.code, got, tc.sentinel)
			}
		})
	}
	if code, status := codeFor(errors.New("anything else")); code != "bad_request" || status != http.StatusBadRequest {
		t.Errorf("fallback = (%q, %d), want (bad_request, 400)", code, status)
	}
	if got := sentinelFor("some_future_code"); got != nil {
		t.Errorf("sentinelFor(unknown) = %v, want nil", got)
	}
}

// TestSentinelsOverTheWire is the client-side half of the envelope
// redesign: rejections decoded by server.Client satisfy errors.Is
// against the same sentinels the in-process API returns.
func TestSentinelsOverTheWire(t *testing.T) {
	ctx := context.Background()

	t.Run("queue_full", func(t *testing.T) {
		_, ts, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		blocker, err := c.Submit(ctx, slowReq())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, blocker.ID, StateRunning, 5*time.Second)
		if _, err := c.Submit(ctx, fastReq()); err != nil {
			t.Fatalf("filling queue: %v", err)
		}
		_, err = c.Submit(ctx, fastReq())
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("err = %v, want errors.Is ErrQueueFull", err)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != "queue_full" || !ae.Temporary() {
			t.Fatalf("APIError = %+v, want code queue_full and Temporary", ae)
		}
		_ = ts
	})

	t.Run("load_shed", func(t *testing.T) {
		// Depth 4, shed at 0.5: with 2 queued, batch is refused.
		_, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ShedFraction: 0.5})
		blocker, err := c.Submit(ctx, slowReq())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, blocker.ID, StateRunning, 5*time.Second)
		for i := 0; i < 2; i++ {
			if _, err := c.Submit(ctx, fastReq()); err != nil {
				t.Fatalf("filling queue: %v", err)
			}
		}
		batch := fastReq()
		batch.Priority = "batch"
		_, err = c.Submit(ctx, batch)
		if !errors.Is(err, ErrLoadShed) {
			t.Fatalf("err = %v, want errors.Is ErrLoadShed", err)
		}
		// Normal work still gets in where batch is shed.
		if _, err := c.Submit(ctx, fastReq()); err != nil {
			t.Fatalf("normal submit during shed: %v", err)
		}
	})

	t.Run("max_wait_exceeded", func(t *testing.T) {
		s, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
		s.sched.ObserveRun(10 * time.Second)
		blocker, err := c.Submit(ctx, slowReq())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, blocker.ID, StateRunning, 5*time.Second)
		if _, err := c.Submit(ctx, fastReq()); err != nil {
			t.Fatalf("queueing one ahead: %v", err)
		}
		tight := fastReq()
		tight.MaxWaitS = 1
		_, err = c.Submit(ctx, tight)
		if !errors.Is(err, ErrMaxWait) {
			t.Fatalf("err = %v, want errors.Is ErrMaxWait", err)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.RetryAfter < time.Second {
			t.Fatalf("APIError = %+v, want a live RetryAfter >= 1s", ae)
		}
	})

	t.Run("shutting_down", func(t *testing.T) {
		s, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		_, err := c.Submit(ctx, fastReq())
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("err = %v, want errors.Is ErrShuttingDown", err)
		}
	})

	t.Run("not_found", func(t *testing.T) {
		_, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		_, err := c.Status(ctx, "run-99999999")
		if !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("err = %v, want errors.Is ErrUnknownJob", err)
		}
	})

	t.Run("unknown_workload", func(t *testing.T) {
		_, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		_, err := c.Submit(ctx, RunRequest{Workload: "nope"})
		if !errors.Is(err, edm.ErrUnknownWorkload) {
			t.Fatalf("err = %v, want errors.Is edm.ErrUnknownWorkload", err)
		}
	})

	t.Run("raw text fallback", func(t *testing.T) {
		// A proxy-style error that never went through the envelope still
		// decodes into a useful APIError.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "bad gateway", http.StatusBadGateway)
		}))
		defer ts.Close()
		c := NewClient(ts.URL, nil)
		_, err := c.Status(ctx, "run-00000001")
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway || ae.Message != "bad gateway" || ae.Code != "" {
			t.Fatalf("APIError = %+v, want raw-text 502", ae)
		}
		if errors.Is(err, ErrUnknownJob) {
			t.Fatal("code-less error must not map to a sentinel")
		}
	})
}
