package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edm"
	"edm/internal/server"
)

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": "transient"})
			return
		}
		json.NewEncoder(w).Encode(server.VersionInfo{Service: "edmd", Version: "x"})
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatalf("Version after transient failures: %v", err)
	}
	if v.Service != "edmd" {
		t.Errorf("decoded %+v", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	if got := c.Retries.Load(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
}

func TestClientPermanent4xxDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(server.ErrorBody{Code: "bad_request", Message: "scale must be positive"})
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	_, err := c.Run(context.Background(), server.RunRequest{Workload: "home02", Scale: -1})
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Errorf("4xx misclassified as unavailability: %v", err)
	}
	var ae *server.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Errorf("err = %v, want the worker's *server.APIError with status 400", err)
	}
	if !strings.Contains(err.Error(), "scale must be positive") {
		t.Errorf("server's error message lost: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retries)", got)
	}
	if got := c.Retries.Load(); got != 0 {
		t.Errorf("Retries = %d, want 0", got)
	}
}

func TestClientExhaustsRetriesAsUnavailable(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()

	cfg := fastClient() // MaxRetries: 2
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	_, err := c.Version(context.Background())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var ae *server.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway {
		t.Errorf("err = %v, want the last attempt's *server.APIError (502) wrapped", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + MaxRetries)", got)
	}
}

// TestAttemptHonoursRetryAfter pins the 429 contract at the retry
// level: a server retry hint (Retry-After, integer seconds per RFC
// 9110) becomes exactly the wait before the next attempt, overriding
// the computed backoff; without one the computed backoff applies, and
// a permanent error is not retried at all.
func TestAttemptHonoursRetryAfter(t *testing.T) {
	cfg := fastClient() // computed backoff never exceeds 4ms
	c := NewClient(cfg)
	for _, tc := range []struct {
		name  string
		err   error
		retry bool
		hint  time.Duration // 0: any computed backoff
	}{
		{"hinted 429", &server.APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: 7 * time.Second}, true, 7 * time.Second},
		{"hinted 503", &server.APIError{StatusCode: http.StatusServiceUnavailable, RetryAfter: time.Second}, true, time.Second},
		{"bare 429", &server.APIError{StatusCode: http.StatusTooManyRequests}, true, 0},
		{"transport", errors.New("connection refused"), true, 0},
		{"permanent 404", &server.APIError{StatusCode: http.StatusNotFound, RetryAfter: time.Second}, false, 0},
	} {
		wait, retry := c.retryWait(tc.err, 0)
		switch {
		case retry != tc.retry:
			t.Errorf("%s: retry = %v, want %v", tc.name, retry, tc.retry)
		case tc.hint > 0 && wait != tc.hint:
			t.Errorf("%s: wait = %v, want the server's %v", tc.name, wait, tc.hint)
		case tc.retry && tc.hint == 0 && (wait <= 0 || wait > cfg.RetryMax):
			t.Errorf("%s: wait = %v, want a computed backoff in (0, %v]", tc.name, wait, cfg.RetryMax)
		}
	}

	// End to end: a 429 carrying Retry-After: 1 holds the retry back a
	// full second, although the computed backoff would be milliseconds.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorBody{Code: "queue_full", Message: "queue is full"})
			return
		}
		json.NewEncoder(w).Encode(server.VersionInfo{Service: "edmd"})
	}))
	defer ts.Close()
	cfg.BaseURL = ts.URL
	c = NewClient(cfg)
	start := time.Now()
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatalf("Version after one 429: %v", err)
	}
	if d := time.Since(start); d < time.Second {
		t.Errorf("retry came after %v, want the 1s Retry-After honoured", d)
	}
	if got := c.Retries.Load(); got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
}

func TestBackoffBounds(t *testing.T) {
	cfg := ClientConfig{RetryBase: 10 * time.Millisecond, RetryMax: 80 * time.Millisecond}
	c := NewClient(cfg)
	for attempt := 0; attempt < 12; attempt++ {
		ceil := cfg.RetryBase << attempt
		if ceil > cfg.RetryMax || ceil <= 0 {
			ceil = cfg.RetryMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < ceil/2 || d > ceil {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
	}
}

func TestHealthDecodesDrainingWorker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.HealthInfo{Status: "draining", Workers: 2})
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	h, err := NewClient(cfg).Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.OK() {
		t.Error("draining worker reported OK")
	}
	if h.Status != "draining" || h.Workers != 2 {
		t.Errorf("decoded %+v", h)
	}
}

func TestRunReportsFailedJobAsRunFailed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateFailed, Error: "unknown workload"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	_, err := NewClient(cfg).Run(context.Background(), server.RunRequest{Workload: "nope"})
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("err = %v, want ErrRunFailed", err)
	}
	if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("job error lost: %v", err)
	}
}

// TestCellSubmitCarriesSchedulingIdentity pins the priority/tenant
// passthrough: a client configured with a scheduling class and tenant
// stamps them on every cell submission's wire body, while the spec
// mapping itself (RequestForCell) stays identity-free.
func TestCellSubmitCarriesSchedulingIdentity(t *testing.T) {
	spec := fakeSpec("prio")
	if req := RequestForCell(spec); req.Priority != "" || req.Tenant != "" {
		t.Fatalf("RequestForCell carries scheduling identity: %+v", req)
	}

	var got server.RunRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(rw http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("decoding submission: %v", err)
		}
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		view := struct {
			server.JobStatus
			Result any `json:"result"`
		}{JobStatus: server.JobStatus{ID: "j1", State: server.StateDone}, Result: fakeResult(got)}
		json.NewEncoder(rw).Encode(view)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	cfg.Priority = "batch"
	cfg.Tenant = "sweep-42"
	if _, err := NewClient(cfg).RunCell(context.Background(), spec); err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got.Priority != "batch" || got.Tenant != "sweep-42" {
		t.Errorf("submission carried priority=%q tenant=%q, want batch/sweep-42", got.Priority, got.Tenant)
	}
}

// TestAPIErrorText pins what a worker's permanent error looks like to
// the coordinator: the envelope's code and message survive as a typed
// *server.APIError carrying its sentinel, and a body that is not an
// envelope (proxy text, unrelated JSON) survives verbatim as the
// message.
func TestAPIErrorText(t *testing.T) {
	for _, tc := range []struct {
		body     string
		code     string
		message  string
		sentinel error
	}{
		{`{"code":"unknown_workload","message":"no such workload"}`, "unknown_workload", "no such workload", edm.ErrUnknownWorkload},
		{"plain proxy text\n", "", "plain proxy text", nil},
		{`{"unrelated":true}`, "", `{"unrelated":true}`, nil},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, tc.body)
		}))
		cfg := fastClient()
		cfg.BaseURL = ts.URL
		_, err := NewClient(cfg).Run(context.Background(), server.RunRequest{Workload: "nope"})
		ts.Close()
		var ae *server.APIError
		if !errors.As(err, &ae) {
			t.Errorf("body %q: err = %v, want a *server.APIError", tc.body, err)
			continue
		}
		if ae.Code != tc.code || ae.Message != tc.message {
			t.Errorf("body %q: code %q message %q, want %q / %q", tc.body, ae.Code, ae.Message, tc.code, tc.message)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("body %q: errors.Is(err, %v) = false", tc.body, tc.sentinel)
		}
	}
}

func TestRunEndToEndAgainstFake(t *testing.T) {
	w := newFakeWorker(newFakeFleet(nil))
	defer w.kill()

	cfg := fastClient()
	cfg.BaseURL = w.url()
	c := NewClient(cfg)
	spec := fakeSpec("e2e")
	res, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if res.Trace != spec.Trace || res.OSDs != spec.OSDs {
		t.Errorf("result %+v does not match spec %+v", res, spec)
	}
}
