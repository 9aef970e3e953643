package dispatch

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edm"
	"edm/internal/chaos"
	"edm/internal/experiment"
)

// countingLocal is a LocalRunner that counts executions and returns the
// canned per-spec result.
func countingLocal(n *atomic.Uint64) LocalRunner {
	return func(ctx context.Context, spec experiment.CellSpec) (*edm.Result, error) {
		n.Add(1)
		return wantFakeResult(spec), nil
	}
}

func TestEmptyFleetRunsLocally(t *testing.T) {
	var localCalls atomic.Uint64
	p := New(Config{Local: countingLocal(&localCalls)})
	specs := []experiment.CellSpec{fakeSpec("a"), fakeSpec("b"), fakeSpec("c")}

	runs, err := p.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(runs) != len(specs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(specs))
	}
	for i, r := range runs {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
		if r.Worker != "local" {
			t.Errorf("run %d worker = %q, want local", i, r.Worker)
		}
		if r.Spec != specs[i] {
			t.Errorf("run %d spec out of order: %+v", i, r.Spec)
		}
		if !reflect.DeepEqual(r.Result, wantFakeResult(specs[i])) {
			t.Errorf("run %d wrong result: %+v", i, r.Result)
		}
	}
	if got := localCalls.Load(); got != 3 {
		t.Errorf("local executions = %d, want 3", got)
	}

	cells := Merge(runs)
	for i, c := range cells {
		if c.Trace != specs[i].Trace || c.OSDs != specs[i].OSDs || c.Policy != specs[i].Policy {
			t.Errorf("merged cell %d out of order: %+v", i, c)
		}
	}
}

func TestDuplicateSpecsExecuteOnce(t *testing.T) {
	var localCalls atomic.Uint64
	p := New(Config{Local: countingLocal(&localCalls)})
	dup := fakeSpec("dup")
	specs := []experiment.CellSpec{dup, fakeSpec("other"), dup, dup}

	runs, err := p.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := localCalls.Load(); got != 2 {
		t.Errorf("local executions = %d, want 2 (one per unique spec)", got)
	}
	if runs[0].Result != runs[2].Result || runs[0].Result != runs[3].Result {
		t.Error("duplicate specs should share one accepted result")
	}
	if !reflect.DeepEqual(runs[1].Result, wantFakeResult(specs[1])) {
		t.Errorf("distinct spec got wrong result: %+v", runs[1].Result)
	}
}

func TestLocalRunFailureIsRecorded(t *testing.T) {
	boom := errors.New("boom")
	p := New(Config{Local: func(ctx context.Context, spec experiment.CellSpec) (*edm.Result, error) {
		if spec.Trace == "bad" {
			return nil, boom
		}
		return wantFakeResult(spec), nil
	}})
	runs, err := p.Run(context.Background(), []experiment.CellSpec{fakeSpec("good"), fakeSpec("bad")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runs[0].Err != nil {
		t.Errorf("good cell failed: %v", runs[0].Err)
	}
	if !errors.Is(runs[1].Err, boom) {
		t.Errorf("bad cell err = %v, want boom", runs[1].Err)
	}
}

// TestWorkerKilledMidCellReassignedOnce pins the coordinator's fault
// path: a worker that dies while executing a cell is marked down and
// the cell is reassigned — exactly once — to a surviving worker.
func TestWorkerKilledMidCellReassignedOnce(t *testing.T) {
	// First execution of the cell stalls forever (its worker will be
	// killed); any later execution completes immediately.
	fleet := newFakeFleet(func(workload string, n int) time.Duration {
		if n == 1 {
			return -1
		}
		return 0
	})
	w1, w2 := newFakeWorker(fleet), newFakeWorker(fleet)
	defer w1.kill()
	defer w2.kill()
	workers := map[string]*fakeWorker{w1.url(): w1, w2.url(): w2}

	p := New(Config{
		Workers:       []string{w1.url(), w2.url()},
		Client:        fastClient(),
		Slots:         1,
		DisableLocal:  true,
		ProbeInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})

	// Kill whichever worker accepted the first execution, as soon as it
	// has accepted it.
	killed := make(chan string, 1)
	go func() {
		e := <-fleet.firstExec
		workers[e.worker].kill()
		killed <- e.worker
	}()

	spec := fakeSpec("victim")
	runs, err := p.Run(context.Background(), []experiment.CellSpec{spec})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := runs[0]
	if r.Err != nil {
		t.Fatalf("cell failed: %v", r.Err)
	}
	deadWorker := <-killed
	if r.Worker == deadWorker || r.Worker == "" {
		t.Errorf("accepted result from %q, want the surviving worker", r.Worker)
	}
	if r.Reassigned != 1 {
		t.Errorf("reassigned = %d, want exactly 1", r.Reassigned)
	}
	if r.Launches != 2 {
		t.Errorf("launches = %d, want 2 (original + reassignment)", r.Launches)
	}
	if got := fleet.executions("victim"); got != 2 {
		t.Errorf("fleet accepted %d executions, want 2", got)
	}
	if !reflect.DeepEqual(r.Result, wantFakeResult(spec)) {
		t.Errorf("wrong result after reassignment: %+v", r.Result)
	}
	if got := p.reassigns.Load(); got != 1 {
		t.Errorf("pool reassign counter = %d, want 1", got)
	}
}

// TestRestartedWorkerRequeuesCell: a worker that restarts mid-cell
// without its state answers 404 for the job it accepted. That is a
// worker fault, so the cell is requeued and finishes on a second
// launch instead of failing as if the run itself had failed.
func TestRestartedWorkerRequeuesCell(t *testing.T) {
	// The first execution stalls until its worker forgets it; any later
	// execution completes immediately.
	fleet := newFakeFleet(func(workload string, n int) time.Duration {
		if n == 1 {
			return -1
		}
		return 0
	})
	w1, w2 := newFakeWorker(fleet), newFakeWorker(fleet)
	defer w1.kill()
	defer w2.kill()
	workers := map[string]*fakeWorker{w1.url(): w1, w2.url(): w2}

	p := New(Config{
		Workers:       []string{w1.url(), w2.url()},
		Client:        fastClient(),
		Slots:         1,
		DisableLocal:  true,
		ProbeInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})

	// "Restart" whichever worker accepted the first execution once the
	// job is on its books.
	go func() {
		e := <-fleet.firstExec
		for workers[e.worker].forgetJobs() == 0 {
			time.Sleep(time.Millisecond)
		}
	}()

	spec := fakeSpec("forgotten")
	runs, err := p.Run(context.Background(), []experiment.CellSpec{spec})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := runs[0]
	if r.Err != nil {
		t.Fatalf("cell failed: %v", r.Err)
	}
	if r.Launches != 2 || r.Reassigned != 1 {
		t.Errorf("launches = %d, reassigned = %d; want 2 and 1 (original + requeue)", r.Launches, r.Reassigned)
	}
	if got := fleet.executions("forgotten"); got != 2 {
		t.Errorf("fleet accepted %d executions, want 2", got)
	}
	if !reflect.DeepEqual(r.Result, wantFakeResult(spec)) {
		t.Errorf("wrong result after requeue: %+v", r.Result)
	}
}

// hostRoutes sends each request through the round tripper registered
// for its host, and through def otherwise.
type hostRoutes struct {
	by  map[string]http.RoundTripper
	def http.RoundTripper
}

func (h hostRoutes) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt, ok := h.by[req.URL.Host]; ok {
		return rt.RoundTrip(req)
	}
	return h.def.RoundTrip(req)
}

// TestHTTPScriptFaultsLeaveSweepUnchanged drives a chaos.HTTPScript
// through the coordinator's real HTTP client: one dropped /v1/runs
// exchange fleet-wide, and one worker that dies a few exchanges in.
// Retries and reassignment absorb both, and the merged cells equal a
// clean sweep's.
func TestHTTPScriptFaultsLeaveSweepUnchanged(t *testing.T) {
	specs := []experiment.CellSpec{fakeSpec("a"), fakeSpec("b"), fakeSpec("c"), fakeSpec("d"), fakeSpec("e")}
	sweep := func(transport func(ws []*fakeWorker) http.RoundTripper) ([]CellRun, uint64) {
		t.Helper()
		fleet := newFakeFleet(nil)
		ws := []*fakeWorker{newFakeWorker(fleet), newFakeWorker(fleet)}
		defer ws[0].kill()
		defer ws[1].kill()
		cc := fastClient()
		if transport != nil {
			cc.HTTP = &http.Client{Transport: transport(ws)}
		}
		p := New(Config{
			Workers:       []string{ws[0].url(), ws[1].url()},
			Client:        cc,
			Slots:         1,
			DisableLocal:  true,
			ProbeInterval: 5 * time.Millisecond,
			Logf:          t.Logf,
		})
		runs, err := p.Run(context.Background(), specs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i, r := range runs {
			if r.Err != nil {
				t.Fatalf("cell %d failed: %v", i, r.Err)
			}
		}
		var retries uint64
		for _, w := range p.workers {
			retries += w.client.Retries.Load()
		}
		return runs, retries
	}

	clean, _ := sweep(nil)
	faulty, retries := sweep(func(ws []*fakeWorker) http.RoundTripper {
		drop := chaos.NewHTTPScript(chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.FaultDropResponse, Path: "/v1/runs", Nth: 1},
		}})
		death := chaos.NewHTTPScript(chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.FaultWorkerDeath, Nth: 4},
		}})
		shared := drop.Transport(nil)
		return hostRoutes{
			by:  map[string]http.RoundTripper{ws[0].host(): death.Transport(shared)},
			def: shared,
		}
	})
	if !reflect.DeepEqual(Merge(faulty), Merge(clean)) {
		t.Errorf("faulty sweep merged to\n%+v\nclean sweep to\n%+v", Merge(faulty), Merge(clean))
	}
	if retries == 0 {
		t.Error("no retries recorded under injected drops")
	}
}

// TestHedgedDuplicateDiscarded pins hedging and dedup: a straggling
// cell gets a duplicate launch, the duplicate's result is accepted, and
// the straggler's eventual completion is discarded.
func TestHedgedDuplicateDiscarded(t *testing.T) {
	// Cell "straggler": first execution takes 150ms (long past the
	// hedge threshold), the hedge completes immediately. Cell "anchor"
	// takes 500ms on every execution — it keeps the run alive so the
	// straggler's late completion arrives while the coordinator is
	// still collecting and is observably discarded.
	fleet := newFakeFleet(func(workload string, n int) time.Duration {
		switch {
		case workload == "straggler" && n == 1:
			return 150 * time.Millisecond
		case workload == "anchor":
			return 500 * time.Millisecond
		}
		return 0
	})
	w1, w2 := newFakeWorker(fleet), newFakeWorker(fleet)
	defer w1.kill()
	defer w2.kill()

	p := New(Config{
		Workers:      []string{w1.url(), w2.url()},
		Client:       fastClient(),
		Slots:        2, // a free slot per worker so hedges start promptly
		DisableLocal: true,
		HedgeAfter:   40 * time.Millisecond,
		Logf:         t.Logf,
	})

	specs := []experiment.CellSpec{fakeSpec("straggler"), fakeSpec("anchor")}
	runs, err := p.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	straggler := runs[0]
	if straggler.Err != nil {
		t.Fatalf("straggler failed: %v", straggler.Err)
	}
	if !straggler.Hedged {
		t.Error("straggler was not hedged")
	}
	if straggler.Launches != 2 {
		t.Errorf("straggler launches = %d, want 2", straggler.Launches)
	}
	if straggler.Discarded != 1 {
		t.Errorf("straggler discarded completions = %d, want 1 (the late original)", straggler.Discarded)
	}
	if !reflect.DeepEqual(straggler.Result, wantFakeResult(specs[0])) {
		t.Errorf("straggler accepted wrong result: %+v", straggler.Result)
	}
	if runs[1].Err != nil {
		t.Fatalf("anchor failed: %v", runs[1].Err)
	}
	if got := p.hedges.Load(); got < 1 {
		t.Errorf("pool hedge counter = %d, want >= 1", got)
	}
	if got := p.duplicates.Load(); got < 1 {
		t.Errorf("pool duplicate counter = %d, want >= 1", got)
	}
}

// TestHedgeBothExecutionsFail pins the double-failure corner of
// hedging: the primary stalls, a hedge launches on the second worker,
// then BOTH workers die mid-flight. The cell must fail cleanly with
// ErrExhausted (not hang waiting for a completion that cannot come),
// every retry must land in the per-worker accounting, and no
// coordinator goroutine may outlive Run.
func TestHedgeBothExecutionsFail(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Every execution of the cell stalls forever; completions can only
	// come from the fault path.
	fleet := newFakeFleet(func(string, int) time.Duration { return -1 })
	w1, w2 := newFakeWorker(fleet), newFakeWorker(fleet)
	defer w1.kill()
	defer w2.kill()

	p := New(Config{
		Workers:       []string{w1.url(), w2.url()},
		Client:        fastClient(),
		Slots:         1,
		MaxLaunches:   2, // primary + hedge: no third launch to hide behind
		DisableLocal:  true,
		HedgeAfter:    20 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})

	// Kill both workers once the hedge is in flight (two accepted
	// executions fleet-wide).
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for fleet.executions("victim") < 2 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		w1.kill()
		w2.kill()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	runs, err := p.Run(ctx, []experiment.CellSpec{fakeSpec("victim")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := runs[0]
	if !errors.Is(r.Err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", r.Err)
	}
	if !r.Hedged {
		t.Error("cell was not hedged before the double failure")
	}
	if r.Launches != 2 {
		t.Errorf("launches = %d, want 2 (primary + hedge)", r.Launches)
	}
	if got := fleet.executions("victim"); got != 2 {
		t.Errorf("fleet accepted %d executions, want 2", got)
	}
	// Both deaths were discovered through the retry machinery: each
	// worker's client retried its failing call before giving up.
	for _, w := range p.workers {
		if got := w.client.Retries.Load(); got == 0 {
			t.Errorf("worker %s recorded no retries despite dying mid-poll", w.name)
		}
		if got := w.downs.Load(); got == 0 {
			t.Errorf("worker %s never marked down", w.name)
		}
	}

	// Every coordinator goroutine (worker loops, hedge loop, reprobes)
	// must have exited with Run. httptest teardown is asynchronous, so
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d at start, %d after Run\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFirstCompletionWinsDedup is the white-box core of result dedup:
// with two executions of one cell in flight, the first completion is
// accepted and the second is discarded.
func TestFirstCompletionWinsDedup(t *testing.T) {
	p := New(Config{})
	cell := &cellState{spec: fakeSpec("x")}
	rs := &runState{cells: []*cellState{cell}, remaining: 1, done: make(chan struct{})}

	if !p.beginLaunch(rs, cell) || !p.beginLaunch(rs, cell) {
		t.Fatal("two launches of an incomplete cell must both be admitted")
	}
	first := wantFakeResult(cell.spec)
	if !p.deliver(rs, cell, first, nil, "w1") {
		t.Fatal("first completion must win")
	}
	if p.deliver(rs, cell, &edm.Result{Trace: "imposter"}, nil, "w2") {
		t.Fatal("second completion must be discarded")
	}
	if cell.result != first || cell.worker != "w1" {
		t.Errorf("accepted outcome overwritten: worker=%q", cell.worker)
	}
	if cell.discarded != 1 {
		t.Errorf("discarded = %d, want 1", cell.discarded)
	}
	if p.beginLaunch(rs, cell) {
		t.Error("a completed cell must refuse new launches")
	}
	select {
	case <-rs.done:
	default:
		t.Error("run not marked done after last cell completed")
	}
}

func TestExhaustedLaunchesFailCell(t *testing.T) {
	// The worker answers /healthz but 500s every submission: each
	// launch ends unavailable, the worker recovers on reprobe, and the
	// cell cycles until MaxLaunches is spent and it fails with
	// ErrExhausted — no fallback with DisableLocal set.
	w1 := newFakeWorker(newFakeFleet(nil))
	defer w1.kill()
	w1.mode.Store(mode500)

	p := New(Config{
		Workers:       []string{w1.url()},
		Client:        fastClient(),
		Slots:         1,
		MaxLaunches:   2,
		DisableLocal:  true,
		ProbeInterval: 2 * time.Millisecond,
		Logf:          t.Logf,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	runs, err := p.Run(ctx, []experiment.CellSpec{fakeSpec("doomed")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(runs[0].Err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", runs[0].Err)
	}
	if runs[0].Launches != 2 {
		t.Errorf("launches = %d, want 2", runs[0].Launches)
	}
}

func TestWriteSummaryListsWorkers(t *testing.T) {
	var localCalls atomic.Uint64
	p := New(Config{Local: countingLocal(&localCalls)})
	if _, err := p.Run(context.Background(), []experiment.CellSpec{fakeSpec("s")}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.WriteSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "edmctl_fleet.local_runs 1") {
		t.Errorf("summary missing local run counter:\n%s", out)
	}
	reg := p.Registry()
	var rb strings.Builder
	reg.WriteText(&rb, "", 0)
	if !strings.Contains(rb.String(), "fleet.local_runs 1") {
		t.Errorf("registry missing local run counter:\n%s", rb.String())
	}
}
