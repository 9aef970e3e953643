package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/experiment"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

// LocalRunner executes one cell in-process; the default is
// experiment.RunCell, which produces the same bytes a worker would.
type LocalRunner func(ctx context.Context, spec experiment.CellSpec) (*edm.Result, error)

// Config describes a Pool.
type Config struct {
	// Workers lists edmd base URLs. Empty means every cell runs
	// locally (a sweep degrades to experiment.Matrix semantics).
	Workers []string
	// Client carries the per-worker HTTP client settings; its BaseURL
	// is ignored (each worker gets its own).
	Client ClientConfig

	// Slots is the number of cells dispatched to one worker
	// concurrently. 0 sizes each worker from its /v1/version workers
	// field — a 4-core worker gets 4 in-flight cells.
	Slots int
	// MaxLaunches bounds executions per cell across the fleet —
	// original + reassignments + hedges (default 3).
	MaxLaunches int
	// HedgeAfter launches a duplicate of a cell still in flight after
	// this long, provided a second executor is available (0 disables).
	HedgeAfter time.Duration
	// ProbeInterval paces /healthz re-probes of unhealthy workers
	// (default 500ms).
	ProbeInterval time.Duration
	// CheckpointEvery, when > 0, turns on checkpointed dispatch: every
	// remote cell checkpoints at this cadence (fired simulation
	// events), the coordinator stashes the newest frame on each status
	// poll, and a cell reassigned after its worker died resumes on the
	// next worker from the stashed frame — verified, byte-identical to
	// a fresh run — instead of starting over. 0 keeps plain dispatch
	// (determinism already makes reruns safe; resume just makes them
	// cheaper).
	CheckpointEvery uint64

	// Local runs cells when the fleet cannot (default
	// experiment.RunCell), up to runtime.NumCPU() at a time.
	// DisableLocal turns the fallback off: cells then wait for a worker
	// to return or fail with ErrExhausted.
	Local        LocalRunner
	DisableLocal bool

	// Logf, when set, receives coordinator progress lines (worker
	// down/up, reassignments, hedges, fallback activation).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.MaxLaunches <= 0 {
		c.MaxLaunches = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.Local == nil {
		c.Local = experiment.RunCell
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// workerState is one fleet member: its client, health flag and
// counters. Counters are atomics — worker goroutines write while the
// summary reads.
type workerState struct {
	name    string
	client  *Client
	healthy atomic.Bool
	slots   int

	assigned  atomic.Uint64 // cells handed to this worker
	completed atomic.Uint64 // accepted results it produced
	failed    atomic.Uint64 // permanent run failures it reported
	downs     atomic.Uint64 // times it was marked unavailable
	discarded atomic.Uint64 // completions discarded as duplicates
	frames    atomic.Uint64 // checkpoint frames stashed from its jobs
}

// Pool coordinates sweeps over a worker fleet. Build with New; one
// Pool can run several sweeps in sequence, accumulating counters.
type Pool struct {
	cfg     Config
	workers []*workerState

	// Fleet-level counters across Run calls.
	localRuns  atomic.Uint64
	hedges     atomic.Uint64
	reassigns  atomic.Uint64
	duplicates atomic.Uint64
	resumes    atomic.Uint64
}

// New builds a pool over the configured fleet.
func New(cfg Config) *Pool {
	cfg.applyDefaults()
	p := &Pool{cfg: cfg}
	for _, url := range cfg.Workers {
		cc := cfg.Client
		cc.BaseURL = url
		w := &workerState{name: url, client: NewClient(cc), slots: cfg.Slots}
		p.workers = append(p.workers, w)
	}
	return p
}

// cellState is one unique cell during a Run: its spec, bookkeeping,
// and the accepted outcome. All mutable fields are guarded by
// runState.mu.
type cellState struct {
	spec experiment.CellSpec

	launches   int
	inflight   int
	reassigned int
	hedged     bool
	discarded  int
	resumed    int
	frame      []byte // newest stashed checkpoint frame
	firstStart time.Time
	lastStart  time.Time

	done     bool
	result   *edm.Result
	err      error
	worker   string
	duration time.Duration
}

// runState is the per-Run coordination hub.
type runState struct {
	mu        sync.Mutex
	cells     []*cellState
	pending   chan *cellState
	remaining int
	done      chan struct{}

	localOnce sync.Once
	localWG   sync.WaitGroup
}

// Run executes every spec and returns one CellRun per input, in input
// order. Duplicate specs (same Key) are executed once and share the
// outcome. Run blocks until every cell has a result or ctx is
// cancelled; on cancellation, unfinished cells carry ctx's error.
func (p *Pool) Run(ctx context.Context, specs []experiment.CellSpec) ([]CellRun, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Deduplicate by key: hedging and reassignment already guarantee
	// at-most-one accepted result per key, and identical input specs
	// ride the same guarantee.
	byKey := make(map[string]*cellState)
	slots := make([]*cellState, len(specs))
	rs := &runState{done: make(chan struct{})}
	for i, s := range specs {
		key := s.Key()
		c := byKey[key]
		if c == nil {
			c = &cellState{spec: s}
			byKey[key] = c
			rs.cells = append(rs.cells, c)
		}
		slots[i] = c
	}
	rs.remaining = len(rs.cells)
	// Sized so every enqueue — initial, reassigned, hedged — has room
	// without blocking a worker goroutine.
	rs.pending = make(chan *cellState, len(rs.cells)*(p.cfg.MaxLaunches+1))
	for _, c := range rs.cells {
		rs.pending <- c
	}
	if rs.remaining == 0 {
		close(rs.done)
		return []CellRun{}, nil
	}

	healthyAtStart := p.probeFleet(ctx)
	if len(p.workers) == 0 || healthyAtStart == 0 {
		if len(p.workers) > 0 {
			p.cfg.Logf("dispatch: no healthy workers at start, running locally")
		}
		p.startLocal(ctx, rs)
	}

	var loops sync.WaitGroup
	for _, w := range p.workers {
		n := w.slots
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			loops.Add(1)
			go func(w *workerState) {
				defer loops.Done()
				p.workerLoop(ctx, rs, w)
			}(w)
		}
	}
	if p.cfg.HedgeAfter > 0 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			p.hedgeLoop(ctx, rs)
		}()
	}

	var runErr error
	select {
	case <-rs.done:
	case <-ctx.Done():
		runErr = ctx.Err()
	}
	cancel() // release worker loops blocked on probes or slow calls
	loops.Wait()
	rs.localWG.Wait()

	runs := make([]CellRun, len(specs))
	rs.mu.Lock()
	for i, c := range slots {
		r := CellRun{
			Spec:       c.spec,
			Result:     c.result,
			Err:        c.err,
			Worker:     c.worker,
			Launches:   c.launches,
			Reassigned: c.reassigned,
			Hedged:     c.hedged,
			Discarded:  c.discarded,
			Resumed:    c.resumed,
			Duration:   c.duration,
		}
		if !c.done {
			r.Err = context.Cause(ctx)
			if r.Err == nil {
				r.Err = ctx.Err()
			}
		}
		runs[i] = r
	}
	rs.mu.Unlock()
	return runs, runErr
}

// probeFleet health-checks every worker in parallel and returns how
// many answered healthy. It also sizes auto-slots from /v1/version.
func (p *Pool) probeFleet(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			h, err := w.client.Health(ctx)
			ok := err == nil && h.OK()
			w.healthy.Store(ok)
			if !ok {
				w.downs.Add(1)
				p.cfg.Logf("dispatch: worker %s unhealthy at start (%v)", w.name, err)
				return
			}
			if w.slots <= 0 {
				if v, err := w.client.Version(ctx); err == nil && v.Workers > 0 {
					w.slots = v.Workers
					p.cfg.Logf("dispatch: worker %s: %s %s, %d slots", w.name, v.Service, v.Version, v.Workers)
				} else {
					w.slots = 1
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for _, w := range p.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// workerLoop pulls cells for one worker slot until the run completes.
// An unhealthy worker's slots sit in reprobe instead of pulling, so a
// dead worker never starves the queue.
func (p *Pool) workerLoop(ctx context.Context, rs *runState, w *workerState) {
	for {
		if !w.healthy.Load() {
			if !p.reprobe(ctx, rs, w) {
				return
			}
		}
		select {
		case <-rs.done:
			return
		case <-ctx.Done():
			return
		case cell := <-rs.pending:
			p.execute(ctx, rs, w, cell)
		}
	}
}

// reprobe polls an unhealthy worker's /healthz until it recovers or
// the run ends. Only one slot probes; the rest wait on the cheap flag.
func (p *Pool) reprobe(ctx context.Context, rs *runState, w *workerState) bool {
	tick := time.NewTicker(p.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rs.done:
			return false
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
		if w.healthy.Load() {
			return true
		}
		if h, err := w.client.Health(ctx); err == nil && h.OK() {
			if w.healthy.CompareAndSwap(false, true) {
				p.cfg.Logf("dispatch: worker %s recovered", w.name)
			}
			return true
		}
	}
}

// execute runs one cell on one worker and routes the outcome.
func (p *Pool) execute(ctx context.Context, rs *runState, w *workerState, cell *cellState) {
	if !p.beginLaunch(rs, cell) {
		return
	}
	w.assigned.Add(1)
	var res *edm.Result
	var err error
	if p.cfg.CheckpointEvery > 0 {
		rs.mu.Lock()
		resume := cell.frame
		if resume != nil {
			cell.resumed++
		}
		rs.mu.Unlock()
		if resume != nil {
			p.resumes.Add(1)
			p.cfg.Logf("dispatch: resuming %s on %s from stashed checkpoint (%d bytes)",
				cell.spec, w.name, len(resume))
		}
		res, err = w.client.RunCellResumable(ctx, cell.spec, p.cfg.CheckpointEvery, resume,
			func(frame []byte) {
				rs.mu.Lock()
				cell.frame = frame
				rs.mu.Unlock()
				w.frames.Add(1)
			})
	} else {
		res, err = w.client.RunCell(ctx, cell.spec)
	}
	switch {
	case err == nil:
		if p.deliver(rs, cell, res, nil, w.name) {
			w.completed.Add(1)
		} else {
			w.discarded.Add(1)
			p.duplicates.Add(1)
		}
	case errors.Is(err, ErrUnavailable):
		p.markDown(ctx, rs, w, err)
		p.requeue(ctx, rs, cell, err)
	case errors.Is(err, ErrRunFailed), ctx.Err() == nil:
		// The worker executed the cell and it failed — deterministic,
		// so rerunning elsewhere reproduces it. Record the failure.
		w.failed.Add(1)
		if !p.deliver(rs, cell, nil, err, w.name) {
			w.discarded.Add(1)
			p.duplicates.Add(1)
		}
	default:
		// Cancelled mid-call by the run ending; drop the launch.
		p.abandon(rs, cell)
	}
}

// beginLaunch records a new execution of the cell, refusing when the
// cell has already completed (a hedge that lost the race before it
// even started).
func (p *Pool) beginLaunch(rs *runState, cell *cellState) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if cell.done {
		return false
	}
	now := time.Now()
	if cell.firstStart.IsZero() {
		cell.firstStart = now
	}
	cell.lastStart = now
	cell.launches++
	cell.inflight++
	return true
}

// deliver installs a completed execution's outcome. Exactly one
// execution per cell wins; it reports whether this was the winner.
func (p *Pool) deliver(rs *runState, cell *cellState, res *edm.Result, err error, worker string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cell.inflight--
	return completeLocked(rs, cell, res, err, worker)
}

// completeLocked records the accepted outcome (first completion wins)
// under rs.mu. It reports whether this completion was the winner.
func completeLocked(rs *runState, cell *cellState, res *edm.Result, err error, worker string) bool {
	if cell.done {
		cell.discarded++
		return false
	}
	cell.done = true
	cell.result = res
	cell.err = err
	cell.worker = worker
	cell.duration = time.Since(cell.firstStart)
	rs.remaining--
	if rs.remaining == 0 {
		close(rs.done)
	}
	return true
}

// abandon drops an execution without an outcome (run shutdown).
func (p *Pool) abandon(rs *runState, cell *cellState) {
	rs.mu.Lock()
	cell.inflight--
	rs.mu.Unlock()
}

// requeue sends a cell back to the pending queue after its worker
// became unavailable, or records exhaustion when it is out of
// launches.
func (p *Pool) requeue(ctx context.Context, rs *runState, cell *cellState, cause error) {
	exhausted := func(cell *cellState, cause error) error {
		return fmt.Errorf("%w: %s after %d launches: %v", ErrExhausted, cell.spec, cell.launches, cause)
	}
	rs.mu.Lock()
	cell.inflight--
	if cell.done {
		rs.mu.Unlock()
		return
	}
	if cell.launches >= p.cfg.MaxLaunches {
		if cell.inflight == 0 {
			completeLocked(rs, cell, nil, exhausted(cell, cause), "")
		}
		// Otherwise another execution is still in flight; let it decide.
		rs.mu.Unlock()
		return
	}
	cell.reassigned++
	rs.mu.Unlock()
	p.reassigns.Add(1)
	p.cfg.Logf("dispatch: reassigning %s (%v)", cell.spec, cause)
	select {
	case rs.pending <- cell:
	default:
		// Channel sized for the worst case; reaching here is a bug.
		rs.mu.Lock()
		completeLocked(rs, cell, nil, exhausted(cell, fmt.Errorf("pending queue overflow")), "")
		rs.mu.Unlock()
	}
}

// markDown flips a worker unhealthy and, when that was the last
// healthy worker, activates the local fallback so the sweep finishes
// without the fleet.
func (p *Pool) markDown(ctx context.Context, rs *runState, w *workerState, cause error) {
	if !w.healthy.CompareAndSwap(true, false) {
		return
	}
	w.downs.Add(1)
	p.cfg.Logf("dispatch: worker %s unavailable (%v)", w.name, cause)
	for _, other := range p.workers {
		if other.healthy.Load() {
			return
		}
	}
	p.cfg.Logf("dispatch: no healthy workers left, running remaining cells locally")
	p.startLocal(ctx, rs)
}

// startLocal launches the local fallback executors (once per Run).
// They drain the pending queue alongside any workers that later
// recover; the per-cell dedup keeps double execution harmless.
func (p *Pool) startLocal(ctx context.Context, rs *runState) {
	if p.cfg.DisableLocal {
		return
	}
	rs.localOnce.Do(func() {
		for i := 0; i < runtime.NumCPU(); i++ {
			rs.localWG.Add(1)
			go func() {
				defer rs.localWG.Done()
				for {
					select {
					case <-rs.done:
						return
					case <-ctx.Done():
						return
					case cell := <-rs.pending:
						if !p.beginLaunch(rs, cell) {
							continue
						}
						p.localRuns.Add(1)
						res, err := p.cfg.Local(ctx, cell.spec)
						if err != nil && ctx.Err() != nil {
							p.abandon(rs, cell)
							continue
						}
						if !p.deliver(rs, cell, res, err, "local") {
							p.duplicates.Add(1)
						}
					}
				}
			}()
		}
	})
}

// hedgeLoop launches a duplicate execution for cells in flight longer
// than HedgeAfter — stragglers on a slow or silently-stuck worker —
// provided the fleet has somewhere else to run them.
func (p *Pool) hedgeLoop(ctx context.Context, rs *runState) {
	interval := p.cfg.HedgeAfter / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rs.done:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		healthy := 0
		for _, w := range p.workers {
			if w.healthy.Load() {
				healthy++
			}
		}
		if healthy < 2 {
			continue // nowhere independent to hedge to
		}
		now := time.Now()
		rs.mu.Lock()
		var hedged []*cellState
		for _, c := range rs.cells {
			if c.done || c.hedged || c.inflight == 0 || c.launches >= p.cfg.MaxLaunches {
				continue
			}
			if now.Sub(c.lastStart) < p.cfg.HedgeAfter {
				continue
			}
			c.hedged = true
			hedged = append(hedged, c)
		}
		rs.mu.Unlock()
		for _, c := range hedged {
			p.hedges.Add(1)
			p.cfg.Logf("dispatch: hedging straggler %s", c.spec)
			select {
			case rs.pending <- c:
			default:
			}
		}
	}
}

// Registry exposes the pool's dispatch counters as a telemetry
// registry — the same type edmd serves on /metricsz — with one column
// set per worker plus fleet totals. Build per call: registration is
// one-shot, the gauges read live atomics.
func (p *Pool) Registry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	gauge := func(name string, v *atomic.Uint64) {
		reg.Gauge(name, func(sim.Time) float64 { return float64(v.Load()) })
	}
	for i, w := range p.workers {
		prefix := fmt.Sprintf("worker%d.", i)
		gauge(prefix+"assigned", &w.assigned)
		gauge(prefix+"completed", &w.completed)
		gauge(prefix+"failed", &w.failed)
		gauge(prefix+"retries", &w.client.Retries)
		gauge(prefix+"downs", &w.downs)
		gauge(prefix+"discarded", &w.discarded)
		gauge(prefix+"frames_stashed", &w.frames)
	}
	gauge("fleet.local_runs", &p.localRuns)
	gauge("fleet.hedges", &p.hedges)
	gauge("fleet.reassigned", &p.reassigns)
	gauge("fleet.duplicates_discarded", &p.duplicates)
	gauge("fleet.checkpoint_resumes", &p.resumes)
	return reg
}

// WriteSummary renders the dispatch counters as "name value" text —
// the /metricsz format — prefixed per worker, for edmctl's
// end-of-sweep summary.
func (p *Pool) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "# dispatch summary (%d workers)\n", len(p.workers))
	for i, ws := range p.workers {
		fmt.Fprintf(w, "# worker%d = %s (healthy=%v)\n", i, ws.name, ws.healthy.Load())
	}
	p.Registry().WriteText(w, "edmctl_", 0)
}

// Workers returns the configured worker base URLs in order.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.name
	}
	return out
}
