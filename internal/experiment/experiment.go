// Package experiment regenerates every table and figure of the EDM
// paper's evaluation (§V) from the simulation library. Each experiment
// returns a structured result with a Format method that prints the same
// rows/series the paper reports; cmd/edmbench is a thin shell around
// this package.
//
// Runs within an experiment are independent simulations, so the harness
// fans them out over a bounded worker pool — results are keyed, never
// order-dependent, keeping output deterministic regardless of
// scheduling.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"edm/internal/cluster"
	"edm/internal/policy"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// Policy is the shared policy enum (the same type the root edm package
// exports), re-exported so experiment code and figure labels have one
// source of truth.
type Policy = policy.Policy

// The four systems, labelled as in the paper's figures.
const (
	Baseline = policy.Baseline
	CMT      = policy.CMT
	HDF      = policy.HDF
	CDF      = policy.CDF
)

// AllPolicies in presentation order.
var AllPolicies = policy.All()

// Options scope an experiment run.
type Options struct {
	// Scale divides the Table I workloads (1 = full size). Default 20:
	// every figure reproduces in minutes on a laptop, and the workload
	// concentration at this scale matches the imbalance regime of the
	// paper's Fig. 1 (see EXPERIMENTS.md for scale sensitivity).
	Scale int
	// Seed drives workload generation and the simulations.
	Seed uint64
	// Parallelism bounds the worker pool (default: NumCPU).
	Parallelism int
	// OSDCounts for the matrix experiments (default: 16 and 20, §V.A).
	OSDCounts []int
	// Traces for the matrix experiments (default: all seven).
	Traces []string
	// Lambda is the trigger threshold (default 0.1).
	Lambda float64
	// Check runs every cluster simulation the experiments launch under
	// edm.WithCheck: a run that violates an invariant fails with a
	// descriptive error instead of contributing silently-wrong numbers
	// to a figure.
	Check bool

	// Context, when non-nil, bounds every simulation the experiment
	// launches: once it is cancelled, in-flight runs return promptly
	// with an error wrapping ctx.Err() and queued runs fail before
	// starting. Nil means context.Background() (no cancellation).
	Context context.Context

	// Telemetry, when enabled, makes every simulation the experiments
	// launch write its event log, snapshot CSV and Chrome trace into
	// Telemetry.Dir, one file set per run, prefixed by experiment so
	// runs of one (trace, OSDs, policy) cell under different
	// experiments (fig1, fig7, the matrix) keep separate files.
	Telemetry telemetry.SinkConfig
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 20
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if len(o.OSDCounts) == 0 {
		o.OSDCounts = []int{16, 20}
	}
	if len(o.Traces) == 0 {
		o.Traces = trace.ProfileNames()
	}
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	return o
}

// ParseOSDCounts parses a comma-separated list of cluster sizes, the
// -osds flag of edmbench and edmctl, into Options.OSDCounts.
func ParseOSDCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -osds value %q (want a comma-separated list of positive cluster sizes, e.g. 16,20)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// ctx returns the run context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// pool runs jobs over a bounded worker pool and waits for completion.
func pool(parallelism int, jobs []func()) { (&queue{jobs: jobs}).run(parallelism) }

// queue is a worker pool whose jobs may push continuations, which run
// before any job not yet started: so about parallelism cells are in
// flight, and no worker waits on a prefix.
type queue struct {
	mu      sync.Mutex
	wake    sync.Cond
	jobs    []func() // not yet started, next first
	running int
}

func (q *queue) push(jobs ...func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs = append(jobs, q.jobs...)
	q.wake.Broadcast()
}

// run returns once every job, continuations included, has finished.
func (q *queue) run(parallelism int) {
	q.wake.L = &q.mu
	var wg sync.WaitGroup
	for range max(parallelism, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.mu.Lock()
			defer q.mu.Unlock()
			for len(q.jobs) > 0 || q.running > 0 {
				if len(q.jobs) == 0 {
					q.wake.Wait()
					continue
				}
				job := q.jobs[0]
				q.jobs, q.running = q.jobs[1:], q.running+1
				q.mu.Unlock()
				job()
				q.mu.Lock()
				q.running--
				q.wake.Broadcast()
			}
		}()
	}
	wg.Wait()
}

// Cell is one (trace, cluster size, policy) simulation outcome: the unit
// of Figs. 5, 6 and 8.
type Cell struct {
	Trace  string
	OSDs   int
	Policy Policy
	Err    error
	Result *cluster.Result
}

// Matrix runs the full trace × cluster-size × policy grid once and
// returns every cell; Figs. 5, 6 and 8 are different projections of the
// same runs, exactly as in the paper. The grid is the one MatrixSpecs
// describes, in the same order — a distributed sweep that executes
// MatrixSpecs remotely and merges by spec reassembles this exact slice.
// The four policies of a (trace, cluster size) cell share its prefix
// (runCells).
func Matrix(opts Options) []Cell {
	opts = opts.withDefaults()
	specs := MatrixSpecs(opts)
	cells := make([]Cell, len(specs))
	groups := make([][]sibling, len(specs)/len(AllPolicies)) // a cell's policies are consecutive specs
	for i, s := range specs {
		c, spec, g := &cells[i], paperSpec(s.Trace, s.OSDs, s.Policy, opts), i/len(AllPolicies)
		*c = s.Cell(nil, nil)
		groups[g] = append(groups[g], sibling{runLabel("matrix", spec), spec, func(r *cluster.Result, err error) { c.Result, c.Err = r, err }})
	}
	runCells(opts, groups)
	return cells
}

// FindCell locates a cell in a matrix.
func FindCell(cells []Cell, tr string, osds int, p Policy) *Cell {
	for i := range cells {
		c := &cells[i]
		if c.Trace == tr && c.OSDs == osds && c.Policy == p {
			return c
		}
	}
	return nil
}

// table is a tiny text-table builder for Format methods.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// sortedKeys returns map keys in sorted order (deterministic output).
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
