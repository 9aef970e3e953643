package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edm"
	"edm/internal/cluster"
	"edm/internal/snapshot"
	"edm/internal/trace"
)

// midReq is big enough (hundreds of ms of replay) that a demand
// checkpoint reliably lands mid-run, small enough to re-run locally
// for byte comparison.
func midReq() RunRequest {
	return RunRequest{Workload: "home02", Scale: 20, OSDs: 16, Seed: 3}
}

// directRun executes the request's spec in-process — the reference
// bytes every server-side path must reproduce.
func directRun(t *testing.T, req RunRequest) []byte {
	t.Helper()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := edm.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointResumeOverHTTP is the serving layer's slice of the
// subsystem promise: demand-checkpoint a running job, cancel it,
// submit the frame as a resume request, and the resumed job's result
// is byte-identical to an uninterrupted local run.
func TestCheckpointResumeOverHTTP(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	want := directRun(t, midReq())

	st, resp := submit(t, ts, midReq())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitProgress(t, c, st.ID, 30*time.Second)

	ckCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	frame, err := c.frame(ckCtx, http.MethodPost, "/v1/runs/"+st.ID+"/checkpoint")
	if err != nil {
		t.Fatalf("demand checkpoint: %v", err)
	}
	if len(frame) == 0 {
		t.Fatal("demand checkpoint returned an empty frame")
	}
	// GET must now serve a frame too (the demand one, or a newer
	// cadence frame).
	if latest, err := c.LatestCheckpoint(ctx, st.ID); err != nil || len(latest) == 0 {
		t.Fatalf("LatestCheckpoint after demand = %d bytes, %v", len(latest), err)
	}

	// Kill the original; the frame is all that survives.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, c, st.ID, "", 10*time.Second)

	re, resp := submit(t, ts, RunRequest{Resume: frame})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit resume: status %d", resp.StatusCode)
	}
	// The resumed job's status view shows the frame's embedded spec.
	if view, err := c.Status(ctx, re.ID); err != nil || view.Request.Workload != "" && view.Request.Workload != "home02" {
		t.Fatalf("resume job view: %+v, %v", view, err)
	}
	waitState(t, c, re.ID, StateDone, 60*time.Second)
	view, err := c.Status(ctx, re.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed job result differs from uninterrupted local run:\n got: %.200s\nwant: %.200s", got, want)
	}
}

// TestCheckedJobFreshAndResumed: a check:true job runs under the full
// invariant checker whether it starts fresh or resumes from its own
// checkpoint frame, and checking never changes the result bytes.
func TestCheckedJobFreshAndResumed(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	want := directRun(t, fastReq())

	checked := fastReq()
	checked.Check = true
	checked.CheckpointEvery = 1000
	fresh, resp := submit(t, ts, checked)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit checked: status %d", resp.StatusCode)
	}
	waitState(t, c, fresh.ID, "", 60*time.Second)
	frame, err := c.LatestCheckpoint(ctx, fresh.ID)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if snap, err := snapshot.ReadLast(bytes.NewReader(frame)); err != nil || snap.Fired == 0 {
		t.Fatalf("checked job's frame cannot seed a mid-run resume: %v", err)
	}
	resumed, resp := submit(t, ts, RunRequest{Resume: frame, Check: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit checked resume: status %d", resp.StatusCode)
	}
	for _, id := range []string{fresh.ID, resumed.ID} {
		waitState(t, c, id, "", 60*time.Second)
		st, res := getStatus(t, c, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %q, error %q", id, st.State, st.Error)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("checked job %s differs from the unchecked run:\n got: %.200s\nwant: %.200s", id, got, want)
		}
	}
}

// TestCheckpointUnknownJob pins the client-side error mapping for the
// checkpoint endpoints.
func TestCheckpointUnknownJob(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	_, err := c.LatestCheckpoint(context.Background(), "run-99999999")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("LatestCheckpoint(unknown) = %v, want 404 APIError", err)
	}
	_, err = c.frame(context.Background(), http.MethodPost, "/v1/runs/run-99999999/checkpoint")
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("Checkpoint(unknown) = %v, want 404 APIError", err)
	}
}

// TestBadResumeRejected: garbage resume data is a 400 at submit time,
// not a failed job later.
func TestBadResumeRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	_, resp := submit(t, ts, RunRequest{Resume: []byte("not a snapshot frame")})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with garbage resume: status %d, want 400", resp.StatusCode)
	}
}

// specFrame seals one frame embedding specJSON and traceData, with an
// empty state capture: RunRequest.Spec reads only the spec and whether
// the frame carries its trace.
func specFrame(t *testing.T, specJSON string, traceData []byte) []byte {
	t.Helper()
	snap := &snapshot.Snapshot{FormatVersion: snapshot.Version, SpecJSON: json.RawMessage(specJSON),
		TraceData: traceData, State: &cluster.State{}}
	frame, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestResumeSpecChecked pins that a resume frame's embedded spec passes
// a fresh request's checks at submit: an unknown workload is refused
// with 400 unknown_workload (not admitted to fail later), a negative
// scale with 400, and recovery drops a request whose resume payload
// fails them. A frame that carries its trace needs no known workload.
func TestResumeSpecChecked(t *testing.T) {
	unknown := specFrame(t, `{"Workload":"nope","Scale":20,"OSDs":16}`, nil)
	negative := specFrame(t, `{"Workload":"home02","Scale":-1,"OSDs":16}`, nil)
	_, _, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for name, tc := range map[string]struct {
		frame []byte
		code  string
	}{"unknown workload": {unknown, "unknown_workload"}, "negative scale": {negative, codeBadRequest}} {
		_, err := c.Submit(context.Background(), RunRequest{Resume: tc.frame})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != tc.code {
			t.Errorf("%s: submit answered %v, want 400 %s", name, err, tc.code)
		}
	}
	var encoded bytes.Buffer
	tr := &trace.Trace{Name: "one", Users: 1, Files: []trace.FileInfo{{ID: 0, Size: 4096}},
		Records: []trace.Record{{File: 0, Size: 4096, Kind: trace.OpWrite}}}
	if err := tr.Encode(&encoded); err != nil {
		t.Fatal(err)
	}
	carried := specFrame(t, `{"Workload":"nope","OSDs":4}`, encoded.Bytes())
	if _, err := (RunRequest{Resume: carried}).Spec(); err != nil {
		t.Fatalf("a frame carrying its trace was refused for its workload name: %v", err)
	}

	dir := t.TempDir()
	reqPath := filepath.Join(dir, "run-3.req")
	raw, err := json.Marshal(RunRequest{Resume: unknown})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reqPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	logged := captureLog(t)
	s, rts, _ := startLife(dir)
	defer rts.Close()
	defer s.Shutdown(context.Background())
	requireDropped(t, logged, reqPath)
	if n := s.Recovered(); n != 0 {
		t.Fatalf("recovered %d jobs from a request whose resume spec cannot run", n)
	}
}

// TestStateDirRecovery pins resume-on-restart: a server killed with an
// unfinished, checkpointed job leaves <id>.req and <id>.ckpt behind; a
// new server over the same StateDir re-admits the job under its
// original id, resumes it from the newest frame, and finishes with
// bytes identical to an uninterrupted local run. Completion then
// cleans the state files up. A frame file the new server cannot read —
// here one written with the previous frame version — restarts the job
// from event 0 and is replaced, so the next crash resumes from a
// current frame instead of restarting again. Every state file recovery
// drops leaves one log line naming it.
func TestStateDirRecovery(t *testing.T) {
	want := directRun(t, midReq())

	t.Run("newest frame", func(t *testing.T) {
		dir := t.TempDir()
		id := firstLife(t, dir)
		logged := captureLog(t)
		finishRecovered(t, dir, id, want)
		requireDropped(t, logged)
	})

	t.Run("previous frame version", func(t *testing.T) {
		dir := t.TempDir()
		id := firstLife(t, dir)
		ckPath := filepath.Join(dir, id+".ckpt")
		ck, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		ck[8] = snapshot.Version - 1 // the first frame's header version
		if err := os.WriteFile(ckPath, ck, 0o644); err != nil {
			t.Fatal(err)
		}

		// Second life: the frame is refused, so the job restarts from
		// event 0; it crashes again after a fresh checkpoint.
		logged := captureLog(t)
		s, ts, c := startLife(dir)
		requireDropped(t, logged, ckPath)
		if view, err := c.Status(context.Background(), id); err != nil || len(view.Request.Resume) != 0 {
			t.Fatalf("job with a previous-version frame was re-admitted with %d resume bytes (%v), want a restart",
				len(view.Request.Resume), err)
		}
		checkpointAndCrash(t, s, ts, c, id)
		ck, err = os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.ReadLast(bytes.NewReader(ck))
		if err != nil {
			t.Fatalf("frame file after the restarted life: %v", err)
		}
		if snap.FormatVersion != snapshot.Version {
			t.Fatalf("newest frame has version %d, want %d", snap.FormatVersion, snapshot.Version)
		}

		// Third life resumes from that frame and finishes.
		finishRecovered(t, dir, id, want)
	})

	t.Run("unusable requests", func(t *testing.T) {
		// Each bad request has a valid checkpoint beside it, which must
		// go with it: recovery finds jobs by their requests only.
		dir := t.TempDir()
		garbled := filepath.Join(dir, "run-7.req")
		invalid := filepath.Join(dir, "run-8.req")
		garbledCk := filepath.Join(dir, "run-7.ckpt")
		invalidCk := filepath.Join(dir, "run-8.ckpt")
		frame := validFrame(t)
		for name, data := range map[string][]byte{
			garbled: []byte("{not json"), invalid: []byte(`{"workload":"home99"}`),
			garbledCk: frame, invalidCk: frame,
		} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		logged := captureLog(t)
		s, ts, _ := startLife(dir)
		defer ts.Close()
		defer s.Shutdown(context.Background())
		requireDropped(t, logged, garbled, garbledCk, invalid, invalidCk)
		if n := s.Recovered(); n != 0 {
			t.Fatalf("recovered %d jobs from unusable requests", n)
		}
		for _, name := range []string{garbled, invalid, garbledCk, invalidCk} {
			if _, err := os.Stat(name); !os.IsNotExist(err) {
				t.Errorf("%s still on disk (%v)", name, err)
			}
		}
	})
}

// validFrame returns one checkpoint frame of a small run, which
// snapshot.ReadLast accepts.
func validFrame(t *testing.T) []byte {
	t.Helper()
	var frames bytes.Buffer
	spec := edm.Spec{Workload: "home02", Scale: 1000, OSDs: 8, Seed: 1}
	if _, err := edm.Run(context.Background(), spec, edm.WithCheckpoint(&frames, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadLast(bytes.NewReader(frames.Bytes())); err != nil {
		t.Fatal(err)
	}
	return frames.Bytes()
}

// captureLog sends the standard logger's output to a buffer until the
// test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return &buf
}

// requireDropped checks the log holds exactly one recovery line per
// dropped path, in order, and no other.
func requireDropped(t *testing.T, logged *bytes.Buffer, paths ...string) {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(logged.String(), "\n") {
		if strings.Contains(l, "recovery dropped") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(paths) {
		t.Fatalf("%d recovery lines, want %d:\n%s", len(lines), len(paths), logged)
	}
	for i, p := range paths {
		if !strings.Contains(lines[i], "recovery dropped "+p+": ") {
			t.Errorf("line %d = %q, want it to name %s", i, lines[i], p)
		}
	}
}

// startLife starts a server over the state directory dir.
func startLife(dir string) (*Server, *httptest.Server, *Client) {
	s := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	return s, ts, NewClient(ts.URL, nil)
}

// firstLife submits midReq to a server over dir, checkpoints it mid-run
// and crashes the server, leaving the job's state files behind. It
// returns the job id.
func firstLife(t *testing.T, dir string) string {
	t.Helper()
	s, ts, c := startLife(dir)
	st, resp := submit(t, ts, midReq())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	checkpointAndCrash(t, s, ts, c, st.ID)
	for _, name := range []string{st.ID + ".req", st.ID + ".ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("state file %s missing after crash: %v", name, err)
		}
	}
	return st.ID
}

// checkpointAndCrash waits until the job replays, demand-checkpoints it,
// then simulates a crash: it force-cancels the in-flight job (the drain
// deadline has already expired) and tears the server down. Cancelled
// jobs keep their state files.
func checkpointAndCrash(t *testing.T, s *Server, ts *httptest.Server, c *Client, id string) {
	t.Helper()
	waitProgress(t, c, id, 30*time.Second)
	ckCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.frame(ckCtx, http.MethodPost, "/v1/runs/"+id+"/checkpoint"); err != nil {
		t.Fatalf("demand checkpoint: %v", err)
	}
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	_ = s.Shutdown(expired)
	ts.Close()
}

// finishRecovered starts a server over dir and requires it to resume
// job id from its frame file, finish it with the bytes want, and clean
// its state files up.
func finishRecovered(t *testing.T, dir, id string, want []byte) {
	t.Helper()
	s, ts, c := startLife(dir)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	waitState(t, c, id, StateDone, 60*time.Second)
	view, err := c.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered job result differs from uninterrupted local run:\n got: %.200s\nwant: %.200s", got, want)
	}
	if len(view.Request.Resume) == 0 {
		t.Error("recovered job did not resume from its checkpoint file")
	}

	// Done jobs clean up their state files.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, errReq := os.Stat(filepath.Join(dir, id+".req"))
		_, errCk := os.Stat(filepath.Join(dir, id+".ckpt"))
		if os.IsNotExist(errReq) && os.IsNotExist(errCk) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("state files not cleaned up after completion")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
