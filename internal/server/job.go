package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/cluster"
	"edm/internal/sched"
	"edm/internal/snapshot"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// State is a job's lifecycle phase. Queued, running and preempted are
// transient; done, failed and cancelled are terminal.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	// StatePreempted: the job was checkpointed and parked so a
	// higher-priority job could take its worker; it is requeued at the
	// head of its class and resumes from the frame when a worker frees.
	StatePreempted State = "preempted"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunRequest is the POST /v1/runs body: the JSON surface of edm.Spec.
// Zero fields take the library defaults noted per field.
type RunRequest struct {
	// Workload names a built-in profile (home02..lair62b, random).
	Workload string `json:"workload"`
	// Scale divides the Table I workload (default 20, like the CLIs).
	Scale int `json:"scale,omitempty"`
	// OSDs is the cluster size (default 16).
	OSDs int `json:"osds,omitempty"`
	// Groups is m (default 4).
	Groups int `json:"groups,omitempty"`
	// ObjectsPerFile is k, the RAID-5 stripe width (default 4).
	ObjectsPerFile int `json:"objects_per_file,omitempty"`
	// Policy is baseline | cmt | hdf | cdf (default baseline).
	Policy string `json:"policy,omitempty"`
	// Migration overrides the controller mode: never | midpoint |
	// periodic. Empty keeps the paper default for the policy.
	Migration string `json:"migration,omitempty"`
	// Lambda is the trigger threshold λ (default 0.1).
	Lambda float64 `json:"lambda,omitempty"`
	// Seed drives workload generation and the simulation.
	Seed uint64 `json:"seed,omitempty"`
	// Check runs the job under edm.WithCheck, fresh or resumed: a run
	// that violates an invariant fails instead of returning
	// silently-wrong numbers (distributed sweeps forward their -check).
	Check bool `json:"check,omitempty"`
	// TimeoutS caps the job's wall-clock execution in seconds; 0 defers
	// to the server's -job-timeout (the smaller of the two wins).
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// CheckpointEvery overrides the server's checkpoint cadence (fired
	// simulation events) for this job. 0 takes the server default; the
	// resolved cadence is never 0 — every job keeps a latest digest-
	// sealed frame for GET/POST /v1/runs/{id}/checkpoint.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// Resume, when set, carries a checkpoint frame stream (base64 over
	// the wire) and the job continues that run instead of starting one:
	// the spec embedded in the newest frame rebuilds the simulation,
	// which is fast-forwarded and verified against the sealed state
	// before running to completion. Workload and the other spec fields
	// are ignored when Resume is set.
	Resume []byte `json:"resume,omitempty"`
	// Priority is the scheduling class: batch | normal | interactive
	// (default normal). Interactive jobs are served first and may
	// preempt running batch/normal jobs when every worker is busy;
	// batch jobs are shed first under queue pressure.
	Priority string `json:"priority,omitempty"`
	// Tenant labels the submitter for fair-share scheduling; empty is
	// the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
	// MaxWaitS, when positive, is the longest queue wait the client
	// will tolerate: a submission whose estimated wait exceeds it is
	// rejected immediately (429, code max_wait_exceeded) with the
	// estimate as its Retry-After, instead of queueing into a deadline
	// the server already knows it will miss.
	MaxWaitS float64 `json:"max_wait_s,omitempty"`
}

// class validates and parses the request's priority.
func (r RunRequest) class() (sched.Class, error) {
	if r.MaxWaitS < 0 {
		return 0, fmt.Errorf("server: negative max_wait_s %v", r.MaxWaitS)
	}
	c, err := sched.ParseClass(r.Priority)
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	return c, nil
}

// Spec validates the request and converts it to an edm.Spec. The
// returned error wraps edm.ErrUnknownWorkload for bad workload names,
// so the HTTP layer can map it to 400. A resume request is validated
// by decoding its newest frame and checking the frame's embedded spec
// as a fresh request's: its workload must be known unless the frame
// carries the trace, and its scale must not be negative. The embedded
// spec is returned (so status views show what is actually running).
func (r RunRequest) Spec() (edm.Spec, error) {
	if r.TimeoutS < 0 {
		return edm.Spec{}, fmt.Errorf("server: negative timeout_s %v", r.TimeoutS)
	}
	if len(r.Resume) > 0 {
		snap, err := snapshot.ReadLast(bytes.NewReader(r.Resume))
		if err != nil {
			return edm.Spec{}, fmt.Errorf("server: bad resume data: %w", err)
		}
		var spec edm.Spec
		if err := json.Unmarshal(snap.SpecJSON, &spec); err != nil {
			return edm.Spec{}, fmt.Errorf("server: bad resume spec: %w", err)
		}
		if len(snap.TraceData) == 0 {
			if _, err := trace.Workload(spec.Workload); err != nil {
				return edm.Spec{}, fmt.Errorf("server: resume spec: %w", err)
			}
		}
		if spec.Scale < 0 {
			return edm.Spec{}, fmt.Errorf("server: resume spec: negative scale %d", spec.Scale)
		}
		return spec, nil
	}
	spec := edm.Spec{
		Workload:       r.Workload,
		Scale:          r.Scale,
		OSDs:           r.OSDs,
		Groups:         r.Groups,
		ObjectsPerFile: r.ObjectsPerFile,
		Lambda:         r.Lambda,
		Seed:           r.Seed,
	}
	if spec.Workload == "" {
		return edm.Spec{}, errors.New("server: missing workload")
	}
	if _, err := trace.Workload(spec.Workload); err != nil {
		return edm.Spec{}, fmt.Errorf("server: %w", err)
	}
	if spec.Scale == 0 {
		spec.Scale = 20
	}
	if spec.Scale < 1 {
		return edm.Spec{}, fmt.Errorf("server: scale %d out of range (>= 1)", spec.Scale)
	}
	if spec.OSDs == 0 {
		spec.OSDs = 16
	}
	if r.Policy != "" {
		p, err := edm.ParsePolicy(r.Policy)
		if err != nil {
			return edm.Spec{}, fmt.Errorf("server: %w", err)
		}
		spec.Policy = p
	}
	if r.Migration != "" {
		mode, err := cluster.ParseMigrationMode(r.Migration)
		if err != nil {
			return edm.Spec{}, fmt.Errorf("server: %w", err)
		}
		spec.MigrationMode = &mode
	}
	return spec, nil
}

// job is one accepted run: its request, its lifecycle state, and the
// handles the worker and the HTTP layer share.
type job struct {
	id   string
	req  RunRequest
	spec edm.Spec

	// completedOps is bumped by the progress recorder from the worker
	// goroutine and read by status/stream handlers — hence atomic.
	completedOps atomic.Int64

	// trigger requests out-of-band checkpoints of the running
	// simulation (POST /v1/runs/{id}/checkpoint).
	trigger edm.CheckpointTrigger

	// ckMu guards the latest checkpoint frame. ckCh is replaced (and
	// the old one closed) on every new frame, so checkpoint waiters
	// block on a channel instead of polling. ckptPath, when non-empty,
	// appends every frame to the server's state dir for crash recovery.
	ckMu     sync.Mutex
	ckFrame  []byte
	ckCh     chan struct{}
	ckptPath string
	reqPath  string

	mu        sync.Mutex
	state     State
	err       string
	result    *edm.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	cancelled bool               // cancellation requested (any state)

	// preemptions counts how many times this job was preempted.
	preemptions int

	// done is closed exactly once, when the job reaches a terminal
	// state; stream handlers select on it.
	done chan struct{}
}

func newJob(id string, req RunRequest, spec edm.Spec) *job {
	return &job{
		id:        id,
		req:       req,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		ckCh:      make(chan struct{}),
	}
}

// frameWriter adapts the job to edm.WithCheckpoint: every frame
// arrives as exactly one Write call, so each call replaces the job's
// latest frame, wakes checkpoint waiters, and (when the server keeps
// state on disk) appends the frame to the job's .ckpt file.
type frameWriter struct{ j *job }

func (w frameWriter) Write(p []byte) (int, error) {
	j := w.j
	j.ckMu.Lock()
	j.ckFrame = append(j.ckFrame[:0], p...)
	close(j.ckCh)
	j.ckCh = make(chan struct{})
	path := j.ckptPath
	j.ckMu.Unlock()
	if path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		if _, err := f.Write(p); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// checkpoint returns the job's newest frame (a copy) and a channel
// that is closed when a newer frame lands.
func (j *job) checkpoint() ([]byte, <-chan struct{}) {
	j.ckMu.Lock()
	defer j.ckMu.Unlock()
	var frame []byte
	if len(j.ckFrame) > 0 {
		frame = append([]byte(nil), j.ckFrame...)
	}
	return frame, j.ckCh
}

// begin transitions queued (or preempted) → running and installs the
// cancel handle. It reports false when the job was cancelled while
// waiting (the worker must skip it).
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued && j.state != StatePreempted {
		return false
	}
	if j.cancelled {
		j.state = StateCancelled
		j.finished = time.Now()
		close(j.done)
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish records the run outcome and closes done.
func (j *job) finish(res *edm.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	close(j.done)
}

// park transitions running → preempted; the next attempt resumes from
// the job's newest frame (resumeSource). It refuses when the job is no
// longer running or a cancellation raced in (the caller then finishes
// the job as cancelled). The progress counter resets: resume
// regenerates the run's full telemetry from zero.
func (j *job) park() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.cancelled {
		return false
	}
	j.state = StatePreempted
	j.cancel = nil
	j.preemptions++
	j.completedOps.Store(0)
	return true
}

// resumeSource returns the frame stream the next execution attempt
// should resume from: the job's newest frame, which a parked attempt
// left, else the request's own resume payload, nil for a fresh run (a
// preemption before the first frame restarts; determinism makes the
// result identical either way).
func (j *job) resumeSource() []byte {
	if frame, _ := j.checkpoint(); frame != nil {
		return frame
	}
	if len(j.req.Resume) > 0 {
		return j.req.Resume
	}
	return nil
}

// cancelRequested reports whether DELETE asked for this job to stop.
func (j *job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// requestCancel marks the job cancelled. A queued or preempted job
// terminates immediately; a running job's context is cancelled and the
// worker finishes it within one engine check interval. Terminal jobs
// are untouched. It reports whether the call changed anything.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.cancelled {
		return false
	}
	j.cancelled = true
	switch j.state {
	case StateQueued, StatePreempted:
		j.state = StateCancelled
		j.finished = time.Now()
		close(j.done)
	case StateRunning:
		j.cancel()
	}
	return true
}

// JobStatus is the JSON shape of GET /v1/runs/{id} and the stream's
// status lines.
type JobStatus struct {
	ID           string     `json:"id"`
	State        State      `json:"state"`
	Request      RunRequest `json:"request"`
	CompletedOps int64      `json:"completed_ops"`
	Error        string     `json:"error,omitempty"`
	SubmittedAt  time.Time  `json:"submitted_at"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
	// QueueWaitS is the seconds the job spent queued before a worker
	// picked it up (most recent wait for a preempted-and-resumed job);
	// ElapsedS is its execution time so far (final once terminal).
	// Fleet coordinators use both to pace hedging.
	QueueWaitS float64 `json:"queue_wait_s,omitempty"`
	ElapsedS   float64 `json:"elapsed_s,omitempty"`
	// Preemptions counts how many times the job was checkpointed and
	// parked so a higher-priority job could run.
	Preemptions int `json:"preemptions,omitempty"`
}

// status snapshots the job for JSON encoding. The result is returned
// separately: the snapshot endpoint inlines it, the stream sends it as
// its own line.
func (j *job) status() (JobStatus, *edm.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.id,
		State:        j.state,
		Request:      j.req,
		CompletedOps: j.completedOps.Load(),
		Error:        j.err,
		SubmittedAt:  j.submitted,
		Preemptions:  j.preemptions,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.QueueWaitS = j.started.Sub(j.submitted).Seconds()
		if j.finished.IsZero() {
			st.ElapsedS = time.Since(j.started).Seconds()
		} else {
			st.ElapsedS = j.finished.Sub(j.started).Seconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st, j.result
}

// progressRecorder counts completed file operations from inside the
// simulation so handlers can report live progress. It embeds the no-op
// recorder and overrides exactly one event; the atomic is required
// because the worker goroutine writes while HTTP handlers read.
type progressRecorder struct {
	telemetry.Nop
	n *atomic.Int64
}

func (p progressRecorder) RequestComplete(telemetry.RequestComplete) { p.n.Add(1) }
