// Package server is the edmd serving layer: an HTTP API that accepts
// simulation runs as jobs, executes them on a bounded worker pool
// behind a priority-aware admission scheduler (internal/sched), and
// streams progress and results as NDJSON.
//
// Admission control is strict: a full queue rejects the submit with
// ErrQueueFull (HTTP 429 + Retry-After) instead of queueing unboundedly
// — a saturated simulation box must push back, not fall over. Requests
// carry an optional priority (batch | normal | interactive), tenant
// label and max_wait_s deadline: queues are per-priority with fair
// share across tenants, batch work is shed under pressure
// (ErrLoadShed), and a submission whose estimated queue wait exceeds
// its max_wait_s is rejected up front (ErrMaxWait) with the live
// estimate as its Retry-After. When every worker is busy and an
// interactive job arrives, the youngest lowest-priority running job is
// preempted — checkpointed on demand via its trigger, parked, and
// transparently resumed from the digest-sealed frame when a worker
// frees — so interactive latency does not queue behind batch sweeps.
//
// Every job runs under a context; DELETE /v1/runs/{id} cancels it and
// the discrete-event engine observes the cancellation within one
// sim.CancelCheckInterval. Shutdown drains: accepted jobs finish,
// new submissions are refused, and a drain deadline force-cancels
// whatever is still running.
//
// The API (all request/response bodies are JSON; errors use the
// ErrorBody envelope):
//
//	POST   /v1/runs          submit a RunRequest → 201 + JobStatus
//	GET    /v1/runs          list job statuses
//	GET    /v1/runs/{id}     one job's status (+ result once done)
//	GET    /v1/runs/{id}/stream  NDJSON: status, progress…, result
//	DELETE /v1/runs/{id}     cancel → 200 + JobStatus
//	GET    /healthz          liveness + queue/worker occupancy
//	GET    /metricsz         text metrics from the telemetry registry
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/sched"
	"edm/internal/sim"
	"edm/internal/snapshot"
	"edm/internal/telemetry"
)

// Version identifies this edmd build on GET /v1/version; fleet
// coordinators log it per worker so mixed-version sweeps are visible.
const Version = "0.7.0"

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned by Submit once Shutdown has begun; the
// HTTP layer maps it to 503.
var ErrShuttingDown = errors.New("server: shutting down")

// Config describes a Server.
type Config struct {
	// Workers is the number of simulations run concurrently
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth is the number of accepted-but-not-yet-running jobs the
	// server holds before refusing submissions (default 64).
	QueueDepth int
	// JobTimeout caps each job's wall-clock execution; 0 means no cap.
	// A request's timeout_s is honoured up to this cap.
	JobTimeout time.Duration
	// StreamInterval is the progress cadence of the NDJSON stream
	// endpoint (default 250ms).
	StreamInterval time.Duration
	// RetryAfter is the backoff hint sent with 429 and 503 responses,
	// emitted as integer seconds per RFC 9110 §10.2.3 (default 1s;
	// sub-second values round up to 1).
	RetryAfter time.Duration
	// CheckpointEvery is the default checkpoint cadence (fired
	// simulation events) for jobs that do not set checkpoint_every
	// (default edm.DefaultCheckpointEvery). Every job checkpoints: the
	// latest digest-sealed frame backs the checkpoint endpoints and,
	// with StateDir, crash recovery.
	CheckpointEvery uint64
	// StateDir, when non-empty, persists each unfinished job — its
	// request as <id>.req and its checkpoint frames as <id>.ckpt — and
	// New resubmits whatever it finds there, resuming from the newest
	// complete frame. Completed and failed jobs are cleaned up;
	// cancelled and crashed ones are re-run on restart.
	StateDir string
	// PreemptGrace bounds how long a preemption waits for the victim to
	// produce a fresh checkpoint frame before cancelling it anyway
	// (default 3s). A victim preempted past the grace resumes from its
	// newest earlier frame, or restarts — determinism makes either
	// byte-identical, the grace only trades preemption latency against
	// replay cost.
	PreemptGrace time.Duration
	// ShedFraction is the queue occupancy beyond which batch
	// submissions are shed to keep headroom for normal and interactive
	// work (default 0.75 of QueueDepth; >= 1 disables shedding).
	ShedFraction float64
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 250 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = edm.DefaultCheckpointEvery
	}
	if c.PreemptGrace <= 0 {
		c.PreemptGrace = 3 * time.Second
	}
}

// Server owns the job store, the admission queue and the worker pool.
// Create with New, serve Handler(), stop with Shutdown.
type Server struct {
	cfg     Config
	started time.Time

	// baseCtx parents every job context; baseCancel is the drain
	// deadline's hammer.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// sched owns admission and ordering: per-priority queues, tenant
	// fair share, shedding, deadline rejection and preemption signals.
	sched   *sched.Scheduler
	workers sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for GET /v1/runs
	nextID   uint64
	draining bool

	// Serving metrics, exported by /metricsz through the telemetry
	// registry. Atomics: workers write, scrape handlers read.
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	recovered atomic.Uint64
	preempted atomic.Uint64
	running   atomic.Int64

	reg *telemetry.Registry
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		sched: sched.New(sched.Config{
			Workers:      cfg.Workers,
			QueueDepth:   cfg.QueueDepth,
			ShedFraction: cfg.ShedFraction,
		}),
		jobs: make(map[string]*job),
	}
	s.reg = s.buildRegistry()
	s.recoverState()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// recoverState resubmits the unfinished jobs a previous process left in
// StateDir: each <id>.req is re-admitted under its original id, resumed
// from the newest complete frame in <id>.ckpt when one exists. Runs
// before the worker pool starts, so recovered jobs keep submission
// order. Recovery is capped at the queue capacity; any surplus stays on
// disk for the next restart. A file it cannot use is removed, with one
// log line naming it and the reason; an unusable request takes its
// job's checkpoint file with it.
func (s *Server) recoverState() {
	if s.cfg.StateDir == "" {
		return
	}
	_ = os.MkdirAll(s.cfg.StateDir, 0o755)
	names, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "run-*.req"))
	if err != nil {
		return
	}
	sort.Strings(names)
	for _, name := range names {
		id := strings.TrimSuffix(filepath.Base(name), ".req")
		raw, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		ckPath := filepath.Join(s.cfg.StateDir, id+".ckpt")
		var req RunRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			dropRequest(name, ckPath, "undecodable request", err) // kept, it would wedge every restart
			continue
		}
		spec, err := req.Spec()
		if err != nil {
			dropRequest(name, ckPath, "spec no longer validates", err)
			continue
		}
		if ck, err := os.ReadFile(ckPath); err == nil {
			if _, err := snapshot.ReadLast(bytes.NewReader(ck)); err == nil {
				req.Resume = ck
			} else {
				// No readable first frame (torn, or written by a binary
				// with another frame version): the job restarts from
				// event 0, and the file must go with it. Its new frames
				// would otherwise be appended behind the bad head,
				// which ReadLast never gets past, and every later
				// restart would begin from event 0 again.
				dropState(ckPath, "no readable first frame, the job restarts from event 0", err)
			}
		}
		class, err := req.class()
		if err != nil {
			class = sched.Normal
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "run-"), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
		j := newJob(id, req, spec)
		s.bindState(j)
		// Restore bypasses shedding and deadlines (the work was admitted
		// once already) but still honors QueueDepth: any surplus stays on
		// disk for the next restart.
		if _, err := s.sched.Restore(j.id, class, req.Tenant, j); err != nil {
			return
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.accepted.Add(1)
		s.recovered.Add(1)
	}
}

// dropState removes a state file recovery cannot use and logs which
// file went and why.
func dropState(path, reason string, err error) {
	log.Printf("edmd: recovery dropped %s: %s: %v", path, reason, err)
	_ = os.Remove(path)
}

// dropRequest removes a request file recovery cannot use, and the
// job's checkpoint file with it when there is one: recovery finds jobs
// by their request files, so the checkpoint would otherwise stay on
// disk for good.
func dropRequest(reqPath, ckPath, reason string, err error) {
	dropState(reqPath, reason, err)
	if _, statErr := os.Stat(ckPath); statErr == nil {
		dropState(ckPath, "its request was dropped", fmt.Errorf("%s: %s", filepath.Base(reqPath), reason))
	}
}

// Recovered reports how many interrupted jobs New re-admitted from
// Config.StateDir.
func (s *Server) Recovered() uint64 { return s.recovered.Load() }

// bindState points the job at its persistence files and writes the
// request file. No-op without a StateDir.
func (s *Server) bindState(j *job) {
	if s.cfg.StateDir == "" {
		return
	}
	j.reqPath = filepath.Join(s.cfg.StateDir, j.id+".req")
	j.ckptPath = filepath.Join(s.cfg.StateDir, j.id+".ckpt")
	if raw, err := json.Marshal(j.req); err == nil {
		_ = os.WriteFile(j.reqPath, raw, 0o644)
	}
}

// unbindState removes the persistence files of a job whose admission
// was rejected after bindState had written them.
func (s *Server) unbindState(j *job) {
	if j.reqPath == "" {
		return
	}
	_ = os.Remove(j.reqPath)
	_ = os.Remove(j.ckptPath)
	j.reqPath, j.ckptPath = "", ""
}

// clearState removes a finished job's persistence files. Cancelled jobs
// keep theirs: cancellation here is usually a drain deadline, and the
// next process should pick the job back up.
func (s *Server) clearState(j *job) {
	if j.reqPath == "" {
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone && state != StateFailed {
		return
	}
	_ = os.Remove(j.reqPath)
	_ = os.Remove(j.ckptPath)
}

// buildRegistry wires the serving counters into the shared telemetry
// registry type; /metricsz snapshots it per scrape.
func (s *Server) buildRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Gauge("uptime_seconds", func(sim.Time) float64 { return time.Since(s.started).Seconds() })
	reg.Gauge("jobs_accepted_total", func(sim.Time) float64 { return float64(s.accepted.Load()) })
	reg.Gauge("jobs_rejected_total", func(sim.Time) float64 { return float64(s.rejected.Load()) })
	reg.Gauge("jobs_completed_total", func(sim.Time) float64 { return float64(s.completed.Load()) })
	reg.Gauge("jobs_failed_total", func(sim.Time) float64 { return float64(s.failed.Load()) })
	reg.Gauge("jobs_cancelled_total", func(sim.Time) float64 { return float64(s.cancelled.Load()) })
	reg.Gauge("jobs_recovered_total", func(sim.Time) float64 { return float64(s.recovered.Load()) })
	reg.Gauge("jobs_preempted_total", func(sim.Time) float64 { return float64(s.preempted.Load()) })
	reg.Gauge("jobs_running", func(sim.Time) float64 { return float64(s.running.Load()) })
	reg.Gauge("queue_depth", func(sim.Time) float64 { return float64(s.sched.QueuedTotal()) })
	reg.Gauge("queue_capacity", func(sim.Time) float64 { return float64(s.cfg.QueueDepth) })
	reg.Gauge("workers", func(sim.Time) float64 { return float64(s.cfg.Workers) })
	return reg
}

// Submit validates and admits one run request. It never blocks:
// rejections return immediately — ErrQueueFull (full queue),
// ErrLoadShed (batch under pressure), ErrMaxWait (estimated wait over
// the request's deadline), ErrShuttingDown (draining) — each carrying
// the scheduler's live retry hint, and a bad request the validation
// error.
func (s *Server) Submit(req RunRequest) (JobStatus, error) {
	spec, err := req.Spec()
	if err != nil {
		return JobStatus{}, err
	}
	class, err := req.class()
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Add(1)
		return JobStatus{}, withRetryHint(ErrShuttingDown, s.sched.RetryAfterHint())
	}
	s.nextID++
	j := newJob(fmt.Sprintf("run-%08d", s.nextID), req, spec)
	s.bindState(j)
	maxWait := time.Duration(req.MaxWaitS * float64(time.Second))
	if _, err := s.sched.Submit(j.id, class, req.Tenant, maxWait, j); err != nil {
		s.nextID-- // id was never issued
		s.rejected.Add(1)
		s.unbindState(j)
		return JobStatus{}, translateSchedErr(err)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.accepted.Add(1)
	st, _ := j.status()
	return st, nil
}

// translateSchedErr maps the scheduler's rejection sentinels onto the
// server's API sentinels, carrying the live retry estimate along.
func translateSchedErr(err error) error {
	var rej *sched.RejectError
	var after time.Duration
	if errors.As(err, &rej) {
		after = rej.RetryAfter
	}
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		return withRetryHint(ErrQueueFull, after)
	case errors.Is(err, sched.ErrShed):
		return withRetryHint(ErrLoadShed, after)
	case errors.Is(err, sched.ErrMaxWait):
		return withRetryHint(ErrMaxWait, after)
	case errors.Is(err, sched.ErrClosed):
		return ErrShuttingDown
	}
	return err
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// statuses snapshots every job in submission order.
func (s *Server) statuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i], _ = j.status()
	}
	return out
}

// worker executes scheduled tickets until the scheduler is closed and
// drained by Shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		tk := s.sched.Next()
		if tk == nil {
			return
		}
		j := tk.Payload().(*job)
		s.runJob(j, tk)
		s.clearState(j)
	}
}

// runJob executes one scheduled ticket under its job's context and
// records the outcome. A preemption signal from the scheduler triggers
// an immediate checkpoint of the running simulation; once a fresh
// frame lands (or PreemptGrace expires) the run is cancelled, the job
// parked, and the ticket requeued at the head of its class — the next
// free worker resumes it from the frame, byte-identically.
func (s *Server) runJob(j *job, tk *sched.Ticket) {
	timeout := s.cfg.JobTimeout
	if t := time.Duration(j.req.TimeoutS * float64(time.Second)); t > 0 && (timeout == 0 || t < timeout) {
		timeout = t
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	defer cancel()
	if !j.begin(cancel) {
		s.cancelled.Add(1)
		s.sched.Abort(tk) // never ran: keep it out of the runtime estimates
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	// Preemption watcher: on the scheduler's signal, demand a checkpoint
	// and cancel the run once a fresh frame lands (or the grace expires —
	// the job then resumes from an older frame or restarts; determinism
	// keeps the result byte-identical either way).
	runDone := make(chan struct{})
	watcherDone := make(chan struct{})
	var wasPreempted atomic.Bool
	go func() {
		defer close(watcherDone)
		select {
		case <-runDone:
			return
		case <-tk.Preempted():
		}
		_, fresh := j.checkpoint()
		j.trigger.Request()
		grace := time.NewTimer(s.cfg.PreemptGrace)
		defer grace.Stop()
		select {
		case <-runDone:
			return
		case <-fresh:
		case <-grace.C:
		}
		wasPreempted.Store(true)
		cancel()
	}()

	every := j.req.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}
	// The recorder and the checkpoint capture are both observational: a
	// recorded, checkpointed run stays byte-identical to a bare one (the
	// e2e test pins this).
	opts := []edm.RunOption{
		edm.WithTelemetry(progressRecorder{n: &j.completedOps}),
		edm.WithCheckpoint(frameWriter{j}, every),
		edm.WithCheckpointTrigger(&j.trigger),
	}
	if j.req.Check {
		opts = append(opts, edm.WithCheck())
	}
	var res *edm.Result
	var err error
	if frame := j.resumeSource(); frame != nil {
		res, err = edm.Resume(ctx, bytes.NewReader(frame), opts...)
	} else {
		res, err = edm.Run(ctx, j.spec, opts...)
	}
	close(runDone)
	<-watcherDone

	// A preemption cancel parks the job instead of finishing it —
	// unless the user cancelled it too, or the whole server is being
	// force-drained (then the cancel must stick).
	if wasPreempted.Load() && errors.Is(err, context.Canceled) &&
		!j.cancelRequested() && s.baseCtx.Err() == nil {
		if j.park() {
			s.preempted.Add(1)
			s.sched.Requeue(tk)
			return
		}
	}
	j.finish(res, err)
	s.sched.Finish(tk)
	switch {
	case err == nil:
		s.completed.Add(1)
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
}

// Shutdown drains the server: submissions are refused from now on,
// queued and running jobs keep executing, and the call returns when the
// workers are idle. If ctx expires first, every in-flight job's context
// is cancelled (the engines stop within one check interval) and the
// workers are awaited before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.Close()
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force-cancel in-flight runs, then drain queued jobs fast
		<-idle
		return ctx.Err()
	}
}
