package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/experiment"
	"edm/internal/server"
)

// ClientConfig describes a Client for one edmd worker.
type ClientConfig struct {
	// BaseURL is the worker's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (default: a plain http.Client;
	// per-call deadlines come from contexts, not a client timeout).
	// Fault-injection tests install chaos.HTTPScript's transport here.
	HTTP *http.Client
	// MaxRetries bounds the transient-failure retries per call
	// (default 4; the first attempt is not a retry).
	MaxRetries int
	// RetryBase/RetryMax shape the backoff between retries: the delay
	// doubles from RetryBase, is capped at RetryMax, and is jittered
	// to half-to-full value (defaults 50ms / 2s). A server-sent retry
	// hint (Retry-After) overrides the computed delay.
	RetryBase time.Duration
	RetryMax  time.Duration
	// PollInterval is the job-status polling cadence while a submitted
	// run executes (default 100ms).
	PollInterval time.Duration
	// Priority is the scheduling class stamped on every cell this
	// client submits ("batch", "normal" or "interactive"; empty leaves
	// the worker's default, normal). Sweeps typically run "batch" so
	// ad-hoc interactive work can preempt them.
	Priority string
	// Tenant is the fair-share accounting identity stamped on every
	// cell this client submits (empty: the worker's default tenant).
	Tenant string
}

func (c *ClientConfig) applyDefaults() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
}

// Client runs cells on one edmd worker. It is server.Client plus the
// coordinator's policy: retries with capped, jittered backoff, polling
// until a job is terminal, and checkpoint stashing. It is safe for
// concurrent use; Retries exposes how many retries it has performed
// (the coordinator's per-worker counter).
type Client struct {
	cfg ClientConfig
	api *server.Client

	// Retries counts attempts beyond the first, across all calls.
	Retries atomic.Uint64
}

// NewClient builds a client for the worker at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	cfg.applyDefaults()
	return &Client{cfg: cfg, api: server.NewClient(cfg.BaseURL, cfg.HTTP)}
}

// BaseURL returns the worker's root URL.
func (c *Client) BaseURL() string { return c.api.BaseURL() }

// Health probes GET /healthz once — no retries; the caller is usually
// deciding liveness and wants the answer now. A draining worker (503
// with a JSON body) decodes successfully with OK() == false.
func (c *Client) Health(ctx context.Context) (server.HealthInfo, error) {
	return c.api.Health(ctx)
}

// Version fetches GET /v1/version (with retries: it is part of fleet
// bring-up, where a worker may still be binding its listener).
func (c *Client) Version(ctx context.Context) (server.VersionInfo, error) {
	var v server.VersionInfo
	err := c.retry(ctx, func() (err error) {
		v, err = c.api.Version(ctx)
		return err
	})
	return v, err
}

// Run executes one request end to end: submit, poll until terminal,
// return the result. A job the worker reports as failed or cancelled
// returns an error wrapping ErrRunFailed; a worker that stops
// answering, or forgets the job, returns one wrapping ErrUnavailable.
// Other API errors keep their *server.APIError type and its sentinel,
// so errors.Is(err, edm.ErrUnknownWorkload) holds for a refused
// submission.
func (c *Client) Run(ctx context.Context, req server.RunRequest) (*edm.Result, error) {
	return c.run(ctx, req, nil)
}

// run is Run plus checkpoint stashing: when onFrame is non-nil, each
// status poll of a running job also fetches the newest checkpoint
// frame and hands it to onFrame. Frame fetches are best effort — a
// miss (no frame yet, worker wobble) never fails the run.
func (c *Client) run(ctx context.Context, req server.RunRequest, onFrame func([]byte)) (*edm.Result, error) {
	var st server.JobStatus
	if err := c.retry(ctx, func() (err error) {
		st, err = c.api.Submit(ctx, req)
		return err
	}); err != nil {
		return nil, err
	}
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
		var view server.RunView
		err := c.retry(ctx, func() (err error) {
			view, err = c.api.Status(ctx, st.ID)
			return err
		})
		if errors.Is(err, server.ErrUnknownJob) {
			// The worker accepted this job and has since forgotten it:
			// it restarted without its state. That is a worker fault,
			// not a run failure, so the cell is requeued.
			return nil, fmt.Errorf("%w: %s lost job %s: %w", ErrUnavailable, c.BaseURL(), st.ID, err)
		}
		if err != nil {
			return nil, err
		}
		if onFrame != nil && view.State == server.StateRunning {
			if frame, err := c.api.LatestCheckpoint(ctx, st.ID); err == nil && len(frame) > 0 {
				onFrame(frame)
			}
		}
		switch view.State {
		case server.StateDone:
			if view.Result == nil {
				return nil, fmt.Errorf("%w: %s: job %s done without result", ErrUnavailable, c.BaseURL(), st.ID)
			}
			return view.Result, nil
		case server.StateFailed, server.StateCancelled:
			return nil, fmt.Errorf("%w: job %s %s on %s: %s", ErrRunFailed, st.ID, view.State, c.BaseURL(), view.Error)
		}
	}
}

// RunCell executes one cell spec remotely. The worker runs the exact
// simulation experiment.RunCell would run locally — the request
// carries every field of the spec and nothing else.
func (c *Client) RunCell(ctx context.Context, spec experiment.CellSpec) (*edm.Result, error) {
	return c.Run(ctx, c.cellRequest(spec))
}

// RunCellResumable executes one cell with checkpoint stashing: the
// worker checkpoints every `every` fired events, each status poll
// pulls the newest frame into onFrame, and a non-nil resume stream
// continues a previous (killed) execution from its last stashed frame
// instead of starting over — the worker fast-forwards, verifies the
// sealed state, and finishes with bytes identical to an uninterrupted
// run.
func (c *Client) RunCellResumable(ctx context.Context, spec experiment.CellSpec, every uint64, resume []byte, onFrame func([]byte)) (*edm.Result, error) {
	req := c.cellRequest(spec)
	req.CheckpointEvery = every
	req.Resume = resume
	return c.run(ctx, req, onFrame)
}

// cellRequest is RequestForCell plus the client's scheduling identity:
// the configured priority class and tenant ride along on every cell
// submission without becoming part of the spec (they change where and
// when the cell runs, never what it computes).
func (c *Client) cellRequest(spec experiment.CellSpec) server.RunRequest {
	req := RequestForCell(spec)
	req.Priority = c.cfg.Priority
	req.Tenant = c.cfg.Tenant
	return req
}

// RequestForCell converts a cell spec to the wire request an edmd
// worker executes. The mapping is total: every CellSpec field lands in
// the request, and the worker-side defaults (groups=4, k=4) match the
// local harness, so remote and local runs are byte-identical.
func RequestForCell(spec experiment.CellSpec) server.RunRequest {
	name, err := spec.Policy.MarshalText()
	if err != nil {
		name = []byte(spec.Policy.String())
	}
	return server.RunRequest{
		Workload: spec.Trace,
		Scale:    spec.Scale,
		OSDs:     spec.OSDs,
		Policy:   string(name),
		Lambda:   spec.Lambda,
		Seed:     spec.Seed,
		Check:    spec.Check,
	}
}

// retry runs call under the retry policy. Transport failures and
// temporary API errors (429, 5xx) are retried with capped exponential
// backoff plus jitter, or after the server's retry hint when it sent
// one; exhausted retries return an error wrapping both ErrUnavailable
// and the last failure. Other API errors are permanent and come back
// unchanged.
func (c *Client) retry(ctx context.Context, call func() error) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		err := call()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		wait, ok := c.retryWait(err, attempt)
		if !ok {
			return err
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("%w: %s: %d attempts: %w", ErrUnavailable, c.BaseURL(), attempt+1, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// retryWait decides whether a failed attempt is worth retrying and how
// long to wait first: an API error is retried only when Temporary,
// after its RetryAfter when the server sent one; anything else failed
// in transport or decoding and is retried after the computed backoff.
func (c *Client) retryWait(err error, attempt int) (time.Duration, bool) {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		if !apiErr.Temporary() {
			return 0, false
		}
		if apiErr.RetryAfter > 0 {
			return apiErr.RetryAfter, true
		}
	}
	return c.backoff(attempt), true
}

// backoff computes the jittered exponential delay for a retry attempt:
// uniformly random in [d/2, d] where d = min(base<<attempt, max).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << attempt
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
