package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"edm"
	"edm/internal/sim"
)

// Handler returns the server's HTTP API. The mux is built per call but
// shares the server's state, so it is cheap and safe to call more than
// once (e.g. once for httptest and once for ListenAndServe).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/checkpoint", s.handleCheckpointGet)
	mux.HandleFunc("POST /v1/runs/{id}/checkpoint", s.handleCheckpointPost)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders err as the ErrorBody envelope: the code table in
// errors.go picks the code and HTTP status from the sentinel the error
// wraps, and backpressure statuses (429, 503) carry the live retry
// hint as both the Retry-After header and retry_after_s.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, status := codeFor(err)
	body := ErrorBody{Code: code, Message: err.Error()}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		body.RetryAfterS = s.retrySeconds(err)
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterS))
	}
	writeJSON(w, status, body)
}

// RunView is the GET /v1/runs/{id} body: the job status with the
// result inlined once the run is done.
type RunView struct {
	JobStatus
	Result *edm.Result `json:"result,omitempty"`
}

// decodeRunRequest reads a POST /v1/runs body: a RunRequest object with
// no unknown fields.
func decodeRunRequest(body io.Reader) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("server: bad request body: %w", err)
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRunRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		// The envelope's code table maps the sentinel the error wraps to
		// its status: queue_full/load_shed/max_wait_exceeded → 429 with
		// the scheduler's live Retry-After, shutting_down → 503 (a
		// draining worker never recovers, but a fleet client retries
		// against its *other* workers — the hint paces that retry too),
		// anything else → 400.
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Runs []JobStatus `json:"runs"`
	}{Runs: s.statuses()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	st, res := j.status()
	writeJSON(w, http.StatusOK, RunView{JobStatus: st, Result: res})
}

// checkpointContentType labels checkpoint frame responses; the payload
// is the binary frame format internal/snapshot documents.
const checkpointContentType = "application/x-edm-snapshot"

func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", checkpointContentType)
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(frame)
}

// handleCheckpointGet serves the job's newest digest-sealed checkpoint
// frame, 204 when the run has not produced one yet.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	frame, _ := j.checkpoint()
	if frame == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeFrame(w, frame)
}

// handleCheckpointPost requests an on-demand checkpoint of a running
// job and returns the resulting frame. The simulation polls its trigger
// between events, so the wait is normally a few thousand fired events;
// the request context bounds it. A job that goes terminal before
// producing a fresh frame answers with its newest existing frame, or
// 204 when it never wrote one.
func (s *Server) handleCheckpointPost(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	prev, fresh := j.checkpoint()
	j.trigger.Request()
	select {
	case <-fresh:
		frame, _ := j.checkpoint()
		writeFrame(w, frame)
	case <-j.done:
		// Raced with completion; whatever frame exists is the final word.
		if frame, _ := j.checkpoint(); frame != nil {
			writeFrame(w, frame)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}
	case <-r.Context().Done():
		if prev != nil {
			writeFrame(w, prev)
			return
		}
		s.writeError(w, fmt.Errorf("server: job %s: %w", j.id, ErrCheckpointTimeout))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	j.requestCancel()
	st, _ := j.status()
	writeJSON(w, http.StatusOK, st)
}

// streamLine is one NDJSON line of GET /v1/runs/{id}/stream. Type is
// "status" (initial snapshot), "progress" (periodic), "result"
// (terminal, carries the run output) or "error" (terminal).
type streamLine struct {
	Type   string      `json:"type"`
	Status *JobStatus  `json:"status,omitempty"`
	Run    *edm.Result `json:"run,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// handleStream follows one job as NDJSON until it reaches a terminal
// state or the client goes away. Lines are flushed as they are written
// so clients see progress live.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(line streamLine) {
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	st, _ := j.status()
	emit(streamLine{Type: "status", Status: &st})

	tick := time.NewTicker(s.cfg.StreamInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			st, res := j.status()
			if st.State == StateDone {
				emit(streamLine{Type: "result", Status: &st, Run: res})
			} else {
				emit(streamLine{Type: "error", Status: &st, Error: st.Error})
			}
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			st, _ := j.status()
			emit(streamLine{Type: "progress", Status: &st})
		}
	}
}

// VersionInfo is the GET /v1/version body: enough identity for a fleet
// coordinator to log what it is talking to and size its fan-out.
type VersionInfo struct {
	Service       string `json:"service"`
	Version       string `json:"version"`
	API           string `json:"api"`
	GoVersion     string `json:"go_version"`
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{
		Service:       "edmd",
		Version:       Version,
		API:           "v1",
		GoVersion:     runtime.Version(),
		Workers:       s.cfg.Workers,
		QueueCapacity: s.cfg.QueueDepth,
	})
}

// HealthInfo is the GET /healthz body: liveness plus the occupancy
// numbers an operator (or load balancer) wants at a glance.
type HealthInfo struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Running       int64   `json:"running"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
}

// OK reports whether the server is accepting work (not draining).
func (h HealthInfo) OK() bool { return h.Status == "ok" }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthInfo{
		Status:        status,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.cfg.Workers,
		Running:       s.running.Load(),
		QueueDepth:    s.sched.QueuedTotal(),
		QueueCapacity: s.cfg.QueueDepth,
	})
}

// metricsz renders the telemetry registry as "name value" text lines —
// the same registry type the simulation uses, sampled per scrape via
// Snapshot so scraping does not accumulate rows.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteText(w, "edmd_", sim.Time(0))
	// The scheduler's counters (sched.preemptions, per-class queue
	// waits, tenant shares) are snapshotted per scrape: tenants come
	// and go, so the registry is rebuilt rather than kept live.
	s.sched.Registry().WriteText(w, "edmd_", sim.Time(0))
}
