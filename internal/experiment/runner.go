package experiment

import (
	"context"
	"fmt"

	"edm"
	"edm/internal/cluster"
	"edm/internal/telemetry"
)

// paperSpec is one (trace, cluster size, policy) run under the paper's
// §V methodology — m = k = 4 and a forced midpoint shuffle for the
// migrating policies, which are edm.Spec's defaults — with the options'
// λ.
func paperSpec(name string, osds int, p Policy, opts Options) edm.Spec {
	return edm.Spec{Workload: name, OSDs: osds, Policy: p, Lambda: opts.Lambda}
}

// runLabel names one run's telemetry file set uniquely within an
// edmbench invocation: experiment, trace, cluster size, policy.
func runLabel(exp string, spec edm.Spec) string {
	return fmt.Sprintf("%s.%s.%d.%s", exp, spec.Workload, spec.OSDs, spec.Policy)
}

// prepare supplies what every run of the harness shares: the memoized
// trace (unless spec carries one already), the options' scale and
// seed, edm.WithCheck when Options.Check is set, and a telemetry sink
// whose files are named by label.
func prepare(opts Options, label string, spec edm.Spec) (edm.Spec, []edm.RunOption, *telemetry.Sink, error) {
	if spec.Trace == nil {
		tr, err := buildTrace(spec.Workload, opts)
		if err != nil {
			return spec, nil, nil, err
		}
		spec.Trace = tr
	}
	spec.Scale, spec.Seed = opts.Scale, opts.Seed
	var runOpts []edm.RunOption
	if opts.Check {
		runOpts = append(runOpts, edm.WithCheck())
	}
	sink, err := opts.Telemetry.NewSink(label)
	if err != nil {
		return spec, nil, nil, err
	}
	if sink != nil {
		runOpts = append(runOpts, edm.WithTelemetry(sink.Tracer), edm.WithMetrics(sink.Registry, opts.Telemetry.Sample))
	}
	return spec, runOpts, sink, nil
}

// run executes one simulation of an experiment, prepared as above, as
// a sibling of cell when it is non-nil and through edm.Run otherwise, on
// a pooled scratch the run refills for the next, and flushes its sink.
func run(opts Options, label string, spec edm.Spec, cell *edm.Cell) (*edm.Result, error) {
	ctx := opts.ctx()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: %s not started: %w", label, err)
	}
	spec, runOpts, sink, err := prepare(opts, label, spec)
	if err != nil {
		return nil, err
	}
	scr := scratchPool.Get().(*cluster.Scratch)
	defer scratchPool.Put(scr)
	spec.Cluster.Scratch = scr
	var res *edm.Result
	if cell != nil {
		res, err = runSibling(cell, ctx, spec)
	} else {
		res, err = edm.Run(ctx, spec, runOpts...)
	}
	if err == nil && sink != nil {
		err = sink.Flush()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newCell and runSibling are edm.NewCell and (*edm.Cell).Run; tests
// count prefixes and forks through them.
var (
	newCell    = edm.NewCell
	runSibling = (*edm.Cell).Run
)

// sibling is one run of a cell: its telemetry label, its spec, and
// where its outcome goes.
type sibling struct {
	label string
	spec  edm.Spec
	done  func(*edm.Result, error)
}

// runCells runs groups of sibling runs (edm.Cell) over one worker pool.
// A group's job replays its prefix once and queues the siblings, on the
// prefix's trace, ahead of any group not yet started. A group that
// cannot share its prefix (checked or observed runs, periodic
// migration), or whose prefix fails, queues its runs unshared.
func runCells(opts Options, groups [][]sibling) {
	var q queue
	for _, sibs := range groups {
		q.jobs = append(q.jobs, func() {
			var cell *edm.Cell
			first, runOpts, _, err := prepare(opts, sibs[0].label, sibs[0].spec)
			if err == nil {
				cell = startCell(opts.ctx(), first, len(sibs), runOpts...)
			}
			jobs := make([]func(), len(sibs))
			for i, s := range sibs {
				s.spec.Trace = first.Trace
				jobs[i] = func() { s.done(run(opts, s.label, s.spec, cell)) }
			}
			q.push(jobs...)
		})
	}
	q.run(opts.Parallelism)
}

// startCell is newCell on a pooled scratch. It returns nil when the run
// cannot share its prefix or replaying it fails; each sibling then runs
// unshared and reports its own failure.
func startCell(ctx context.Context, spec edm.Spec, n int, runOpts ...edm.RunOption) *edm.Cell {
	scr := scratchPool.Get().(*cluster.Scratch)
	defer scratchPool.Put(scr)
	spec.Cluster.Scratch = scr
	cell, _ := newCell(ctx, spec, n, runOpts...)
	return cell
}
