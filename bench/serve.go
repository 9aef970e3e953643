package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/server"
)

// serve is the request path of edmd, where HTTP, JSON, admission, the
// per-job cluster build and the always-on progress recorder and
// checkpointing outweigh a small simulation. One unit is one job at
// scale 1000 (7 profiles × {baseline, CDF} in rotation, normal
// priority) through an in-process edmd with two workers: POST /v1/runs,
// then GET /v1/runs/{id}/stream until its result line, from one
// closed-loop client on at most two connections. CMT and HDF are left
// out: on clusters this small their moves now and then find the
// destination full and drop an operation, which would count as a
// failed unit.
type serve struct {
	seed     uint64
	srv      *server.Server
	ts       *httptest.Server
	hc       *http.Client
	client   *server.Client
	rejected atomic.Int64 // submissions refused with 429 or 5xx
}

var servePolicies = []string{"baseline", "cdf"}

func (w *serve) request(i int) server.RunRequest {
	n := len(profileNames)
	return server.RunRequest{
		Workload: profileNames[i%n],
		Scale:    1000,
		Policy:   servePolicies[(i/n)%len(servePolicies)],
		Seed:     w.seed + uint64(i/(n*len(servePolicies))),
	}
}

func (w *serve) start(ctx context.Context) error {
	w.srv, w.ts = startEdmd(2)
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	w.client = server.NewClient(w.ts.URL, w.hc)
	return healthy(ctx, w.client)
}

func (w *serve) stop() { stopEdmd(w.srv, w.ts) }

// counters reports the submissions edmd refused.
func (w *serve) counters() map[string]float64 {
	return map[string]float64{"server.rejected": float64(w.rejected.Load())}
}

// streamLine is one NDJSON line of GET /v1/runs/{id}/stream.
type streamLine struct {
	Type   string            `json:"type"`
	Status *server.JobStatus `json:"status"`
	Run    *edm.Result       `json:"run"`
	Error  string            `json:"error"`
}

func (w *serve) unit(ctx context.Context, i int, tr *tracer) outcome {
	req := w.request(i)
	o := outcome{key: traceKey{req.Workload, req.Scale, req.Seed}}
	t0 := time.Now()
	st, err := w.client.Submit(ctx, req)
	t1 := time.Now()
	if err != nil {
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && apiErr.Temporary() {
			w.rejected.Add(1)
		}
		o.err = err
		return o
	}
	var line streamLine
	var size int
	line, size, o.err = w.follow(ctx, st.ID)
	t2 := time.Now()
	o.res = line.Run
	if tr != nil && o.err == nil {
		unit := tr.add("unit", 0, t0, t2)
		tr.add("server.submit", unit, t0, t1)
		tr.add("server.stream", unit, t1, t2)
		o.ly.submitMs = ms(t1.Sub(t0))
		o.ly.resultBytes = size
		// edmd runs in this process, so its timestamps share our clock.
		// The job can start before the submit response arrives, so the
		// delivery time is measured from the job's end, not by subtraction.
		if js := line.Status; js.StartedAt != nil && js.FinishedAt != nil {
			tr.add("sched.queue", unit, js.SubmittedAt, *js.StartedAt)
			tr.add("server.exec", unit, *js.StartedAt, *js.FinishedAt)
			o.ly.queueMs = js.QueueWaitS * 1e3
			o.ly.execMs = js.ElapsedS * 1e3
			o.ly.deliveryMs = ms(t2.Sub(*js.FinishedAt))
		}
	}
	return o
}

// follow reads a job's stream until its terminal line and returns that
// line and its size in bytes.
func (w *serve) follow(ctx context.Context, id string) (streamLine, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return streamLine{}, 0, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return streamLine{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return streamLine{}, 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return streamLine{}, 0, fmt.Errorf("stream %s: %w", id, err)
		}
		switch line.Type {
		case "result":
			return line, len(sc.Bytes()), nil
		case "error":
			return streamLine{}, 0, fmt.Errorf("job %s: %s", id, line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return streamLine{}, 0, fmt.Errorf("stream %s: %w", id, err)
	}
	return streamLine{}, 0, fmt.Errorf("stream %s ended without a result", id)
}

func (w *serve) verify(ctx context.Context, outs []*outcome) {
	checkAgainst(outs, sample(w.seed, 4, unitPrefix), func(i int) (*edm.Result, error) {
		spec, err := w.request(i).Spec()
		if err != nil {
			return nil, err
		}
		return checkedRun(ctx, spec)
	})
}

func (w *serve) digest(outs []*outcome) string { return resultDigest(outs) }

// startEdmd starts an in-process edmd on a loopback listener.
func startEdmd(workers int) (*server.Server, *httptest.Server) {
	srv := server.New(server.Config{Workers: workers})
	return srv, httptest.NewServer(srv.Handler())
}

// stopEdmd closes the listener and drains the server.
func stopEdmd(srv *server.Server, ts *httptest.Server) {
	if ts != nil {
		ts.Close()
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the benchmark is exiting; a late job is cancelled either way
	}
}

// healthy waits for /healthz to answer ok.
func healthy(ctx context.Context, c *server.Client) error {
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("edmd health: %w", err)
	}
	if !h.OK() {
		return fmt.Errorf("edmd health: status %q", h.Status)
	}
	return nil
}
