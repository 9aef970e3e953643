package dispatch

// Failure-injection harness: a fake edmd worker speaking the API subset
// the dispatch client uses, whose behaviour is scripted per execution.
// A fakeFleet shares one execution log across its workers, so a script
// can say "the first execution of cell X anywhere stalls 150ms, every
// later one completes immediately" — which pins down reassignment and
// hedging scenarios deterministically regardless of which worker the
// coordinator happens to pick.
//
// Injectable faults, per scripted execution or per worker:
//   - stall:  the job takes a scripted wall-clock delay (or never ends)
//   - 500:    submissions fail with an internal error
//   - 429:    submissions are refused busy, with Retry-After
//   - die:    the test closes the worker's listener (kill())
//   - drain:  /healthz answers 503 draining
//   - forget: the worker drops every job it accepted (forgetJobs()), as
//     an edmd restarted without -state-dir does; status polls for them
//     answer 404 not_found

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/experiment"
	"edm/internal/server"
)

// Worker modes (submission behaviour).
const (
	modeOK    = iota // accept and run jobs
	mode500          // refuse submissions with 500
	mode429          // refuse submissions with 429 + Retry-After
	modeDrain        // healthz answers draining
)

// exec describes one scripted execution of a cell.
type exec struct {
	worker string // base URL of the worker that accepted it
	n      int    // 1-based execution index for this cell, fleet-wide
}

// fakeFleet is the shared scripting state for a set of fake workers.
type fakeFleet struct {
	mu    sync.Mutex
	count map[string]int // cell workload -> executions accepted so far
	log   []exec

	// delay scripts how long the n-th (1-based) execution of the cell
	// named by workload takes; a negative delay never completes.
	delay func(workload string, n int) time.Duration

	// firstExec receives each cell's first accepted execution, letting
	// tests act (e.g. kill the worker) at a known point.
	firstExec chan exec
}

func newFakeFleet(delay func(workload string, n int) time.Duration) *fakeFleet {
	if delay == nil {
		delay = func(string, int) time.Duration { return 0 }
	}
	return &fakeFleet{
		count:     map[string]int{},
		delay:     delay,
		firstExec: make(chan exec, 64),
	}
}

// accept records an execution and returns its completion deadline.
func (f *fakeFleet) accept(worker, workload string) (doneAt time.Time, never bool) {
	f.mu.Lock()
	f.count[workload]++
	e := exec{worker: worker, n: f.count[workload]}
	f.log = append(f.log, e)
	f.mu.Unlock()
	if e.n == 1 {
		select {
		case f.firstExec <- e:
		default:
		}
	}
	d := f.delay(workload, e.n)
	if d < 0 {
		return time.Time{}, true
	}
	return time.Now().Add(d), false
}

// executions returns how many executions of the cell the fleet accepted.
func (f *fakeFleet) executions(workload string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count[workload]
}

// fakeJob is one accepted job on a fake worker.
type fakeJob struct {
	req    server.RunRequest
	doneAt time.Time
	never  bool
}

// fakeWorker is one scripted edmd stand-in.
type fakeWorker struct {
	fleet *fakeFleet
	ts    *httptest.Server
	mode  atomic.Int64

	mu     sync.Mutex
	nextID int
	jobs   map[string]*fakeJob

	submissions atomic.Uint64
}

func newFakeWorker(fleet *fakeFleet) *fakeWorker {
	w := &fakeWorker{fleet: fleet, jobs: map[string]*fakeJob{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /v1/version", w.handleVersion)
	mux.HandleFunc("POST /v1/runs", w.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", w.handleStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", func(http.ResponseWriter, *http.Request) {})
	w.ts = httptest.NewServer(mux)
	return w
}

func (w *fakeWorker) url() string { return w.ts.URL }

// host returns the worker's host:port, as requests to it carry it.
func (w *fakeWorker) host() string { return strings.TrimPrefix(w.ts.URL, "http://") }

// kill closes the worker's listener: every in-flight and future call
// fails at the transport, exactly like a crashed process.
func (w *fakeWorker) kill() { w.ts.Close() }

// forgetJobs drops every job the worker accepted, like an edmd that
// restarted without -state-dir: the listener stays up, and status
// polls for the old ids answer 404 not_found. It returns how many jobs
// were dropped.
func (w *fakeWorker) forgetJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.jobs)
	w.jobs = map[string]*fakeJob{}
	return n
}

func (w *fakeWorker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	if w.mode.Load() == modeDrain {
		rw.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(rw).Encode(server.HealthInfo{Status: "draining", Workers: 1})
		return
	}
	json.NewEncoder(rw).Encode(server.HealthInfo{Status: "ok", Workers: 1})
}

func (w *fakeWorker) handleVersion(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(server.VersionInfo{Service: "edmd", Version: "fake", Workers: 1})
}

func (w *fakeWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	w.submissions.Add(1)
	rw.Header().Set("Content-Type", "application/json")
	switch w.mode.Load() {
	case mode500:
		rw.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(rw).Encode(server.ErrorBody{Code: "internal", Message: "injected internal error"})
		return
	case mode429:
		rw.Header().Set("Retry-After", "1")
		rw.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(rw).Encode(server.ErrorBody{Code: "queue_full", Message: "injected queue full", RetryAfterS: 1})
		return
	}
	var req server.RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(server.ErrorBody{Code: "bad_request", Message: err.Error()})
		return
	}
	doneAt, never := w.fleet.accept(w.url(), req.Workload)
	w.mu.Lock()
	w.nextID++
	id := fmt.Sprintf("fake-%d", w.nextID)
	w.jobs[id] = &fakeJob{req: req, doneAt: doneAt, never: never}
	w.mu.Unlock()
	rw.WriteHeader(http.StatusAccepted)
	json.NewEncoder(rw).Encode(server.JobStatus{ID: id, State: server.StateQueued, Request: req})
}

func (w *fakeWorker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	job := w.jobs[r.PathValue("id")]
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	if job == nil {
		rw.WriteHeader(http.StatusNotFound)
		json.NewEncoder(rw).Encode(server.ErrorBody{Code: "not_found", Message: "no such job"})
		return
	}
	view := struct {
		server.JobStatus
		Result *edm.Result `json:"result,omitempty"`
	}{JobStatus: server.JobStatus{ID: r.PathValue("id"), State: server.StateRunning, Request: job.req}}
	if !job.never && time.Now().After(job.doneAt) {
		view.State = server.StateDone
		view.Result = fakeResult(job.req)
	}
	json.NewEncoder(rw).Encode(view)
}

// fakeResult derives a canned result deterministically from the request,
// so tests can verify which spec an accepted result belongs to without
// running a simulation.
func fakeResult(req server.RunRequest) *edm.Result {
	return &edm.Result{
		Trace:         req.Workload,
		OSDs:          req.OSDs,
		Policy:        req.Policy,
		Completed:     int(req.Seed),
		ThroughputOps: float64(req.Scale) + req.Lambda,
	}
}

// fakeSpec builds a distinct cell spec named by workload; the fake
// fleet scripts and logs executions by this name.
func fakeSpec(workload string) experiment.CellSpec {
	return experiment.CellSpec{Trace: workload, OSDs: 8, Policy: experiment.AllPolicies[0], Scale: 100, Seed: 7, Lambda: 0.1}
}

// wantFakeResult is the result every execution of fakeSpec(workload)
// produces, local or remote.
func wantFakeResult(spec experiment.CellSpec) *edm.Result {
	return fakeResult(RequestForCell(spec))
}

// fastClient keeps retry and poll delays test-sized.
func fastClient() ClientConfig {
	return ClientConfig{
		MaxRetries:   2,
		RetryBase:    time.Millisecond,
		RetryMax:     4 * time.Millisecond,
		PollInterval: 2 * time.Millisecond,
	}
}
