package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"edm"
)

// scrapeMetric fetches one gauge from /metricsz.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var got string
		var val float64
		if _, err := fmt.Sscanf(sc.Text(), "%s %v", &got, &val); err == nil && got == name {
			return val
		}
	}
	t.Fatalf("metric %q not found in /metricsz", name)
	return 0
}

// TestPreemptionRoundTripUnderLoad is the tentpole acceptance test:
// with the single worker saturated by a batch job and more batch work
// queued, an interactive arrival must preempt the running batch job
// (checkpoint, park, requeue) and start before any queued batch job —
// and the preempted job, resumed from its frame, must finish with a
// result byte-identical to an uninterrupted run of the same spec.
func TestPreemptionRoundTripUnderLoad(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Saturate the worker with a batch job long enough to preempt.
	victim := midReq()
	victim.Priority = "batch"
	vst, resp := submit(t, ts, victim)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit victim: status %d", resp.StatusCode)
	}
	waitProgress(t, c, vst.ID, 30*time.Second)

	// Queue more batch work behind it.
	batch2 := fastReq()
	batch2.Priority = "batch"
	b2, _ := submit(t, ts, batch2)

	// The interactive arrival: all workers busy → preemption.
	inter := fastReq()
	inter.Priority = "interactive"
	ist, _ := submit(t, ts, inter)

	// Everything must complete; the victim resumes transparently.
	iDone := waitState(t, c, ist.ID, StateDone, 60*time.Second)
	b2Done := waitState(t, c, b2.ID, StateDone, 60*time.Second)
	vDone := waitState(t, c, vst.ID, StateDone, 120*time.Second)

	// The interactive job ran before the queued batch job.
	if iDone.StartedAt == nil || b2Done.StartedAt == nil {
		t.Fatal("missing started_at timestamps")
	}
	if !iDone.StartedAt.Before(*b2Done.StartedAt) {
		t.Errorf("interactive started %v, after queued batch %v — priority inversion",
			iDone.StartedAt, b2Done.StartedAt)
	}

	// The victim really was preempted (not just delayed).
	if vDone.Preemptions < 1 {
		t.Errorf("victim preemptions = %d, want >= 1", vDone.Preemptions)
	}
	if got := scrapeMetric(t, ts, "edmd_sched.preemptions"); got < 1 {
		t.Errorf("edmd_sched.preemptions = %v, want >= 1", got)
	}
	if got := scrapeMetric(t, ts, "edmd_jobs_preempted_total"); got < 1 {
		t.Errorf("edmd_jobs_preempted_total = %v, want >= 1", got)
	}

	// Byte-identity: the preempted-and-resumed result equals the
	// uninterrupted reference run.
	_, res := getStatus(t, c, vst.ID)
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := directRun(t, midReq())
	if !bytes.Equal(got, want) {
		t.Errorf("preempted job result differs from uninterrupted run:\n got: %.200s\nwant: %.200s", got, want)
	}
}

// TestInteractiveSkipsQueueWithoutPreemption: with a free worker, an
// interactive job must NOT preempt anyone — it just runs.
func TestInteractiveSkipsQueueWithoutPreemption(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	b := midReq()
	b.Priority = "batch"
	bst, _ := submit(t, ts, b)
	waitProgress(t, c, bst.ID, 30*time.Second)

	i := fastReq()
	i.Priority = "interactive"
	ist, _ := submit(t, ts, i)
	waitState(t, c, ist.ID, StateDone, 30*time.Second)

	bDone := waitState(t, c, bst.ID, StateDone, 60*time.Second)
	if bDone.Preemptions != 0 {
		t.Errorf("batch job preempted %d times despite a free worker", bDone.Preemptions)
	}
}

// TestShutdownMidPreemption forces a drain deadline while a preemption
// is in flight: the server must still stop cleanly — no parked job
// resurrected into a dead pool, no goroutines left behind.
func TestShutdownMidPreemption(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 1, QueueDepth: 8, StreamInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL, nil)

	victim := slowReq()
	victim.Priority = "batch"
	vst, _ := submit(t, ts, victim)
	waitProgress(t, c, vst.ID, 30*time.Second)

	inter := fastReq()
	inter.Priority = "interactive"
	if _, resp := submit(t, ts, inter); resp.StatusCode != http.StatusCreated {
		t.Fatalf("interactive submit: status %d", resp.StatusCode)
	}

	// Shut down immediately, mid-preemption, with a tight deadline so
	// the force-cancel path runs while the watcher is still working.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx) // deadline error is expected and fine
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after shutdown mid-preemption\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPreemptedStateVisible polls the victim during preemption and
// checks the transient "preempted" state is observable over the API
// with its resume accounted (preemptions >= 1) — operators watching a
// sweep should see why their job paused.
func TestPreemptedStateVisible(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	victim := slowReq()
	victim.Priority = "batch"
	vst, _ := submit(t, ts, victim)
	waitProgress(t, c, vst.ID, 30*time.Second)

	inter := midReq()
	inter.Priority = "interactive"
	ist, _ := submit(t, ts, inter)

	// While the interactive job holds the only worker, the victim must
	// appear as preempted.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := getStatus(t, c, vst.ID)
		if st.State == StatePreempted {
			if st.Preemptions < 1 {
				t.Errorf("preempted job reports preemptions = %d, want >= 1", st.Preemptions)
			}
			break
		}
		if st.State.Terminal() {
			t.Fatalf("victim went terminal (%q) without showing preempted", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never showed state preempted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Cancel both; a preempted job must cancel immediately like a
	// queued one.
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+vst.ID, nil)
	delResp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	final := waitState(t, c, vst.ID, "", 5*time.Second)
	if final.State != StateCancelled {
		t.Errorf("preempted job after DELETE: state %q, want cancelled", final.State)
	}
	del2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+ist.ID, nil)
	delResp2, err := http.DefaultClient.Do(del2)
	if err != nil {
		t.Fatal(err)
	}
	delResp2.Body.Close()
	waitState(t, c, ist.ID, "", 10*time.Second)
}

// TestParkResumesFromNewestFrame pins where a parked job's next attempt
// starts: the newest frame its attempts wrote, so a job parked twice
// resumes from its second frame, and a job parked before writing any
// frame from its request's resume payload.
func TestParkResumesFromNewestFrame(t *testing.T) {
	j := newJob("run-1", RunRequest{Resume: []byte("request frame")}, edm.Spec{})
	for i, frame := range []string{"", "first frame", "second frame"} {
		if !j.begin(func() {}) {
			t.Fatalf("attempt %d did not begin", i+1)
		}
		if frame != "" {
			if _, err := (frameWriter{j}).Write([]byte(frame)); err != nil {
				t.Fatal(err)
			}
		}
		if !j.park() {
			t.Fatalf("attempt %d did not park", i+1)
		}
		want := frame
		if want == "" {
			want = "request frame"
		}
		if got := string(j.resumeSource()); got != want {
			t.Fatalf("after parking attempt %d the job resumes from %q, want %q", i+1, got, want)
		}
	}
}
