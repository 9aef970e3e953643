package experiment

import (
	"fmt"

	"edm"
	"edm/internal/cluster"
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

// run executes one simulation of an experiment through edm.Run. It
// supplies what every run of the harness shares: the memoized trace,
// the options' scale and seed, edm.WithCheck when Options.Check is set,
// a telemetry sink whose files are named by label, a pooled scratch
// that edm.Run refills with the run's grown buffers for the next run in
// the sweep, and the prefix memo, through which sibling policies of one
// cell share their first half when the run is eligible.
func run(opts Options, label string, spec edm.Spec) (*edm.Result, error) {
	ctx := opts.ctx()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: %s not started: %w", label, err)
	}
	tr, err := buildTrace(spec.Workload, opts)
	if err != nil {
		return nil, err
	}
	spec.Trace, spec.Scale, spec.Seed = tr, opts.Scale, opts.Seed
	var runOpts []edm.RunOption
	if opts.Check {
		runOpts = append(runOpts, edm.WithCheck())
	}
	sink, err := opts.Telemetry.NewSink(label)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		runOpts = append(runOpts, edm.WithTelemetry(sink.Tracer), edm.WithMetrics(sink.Registry, opts.Telemetry.Sample))
	}
	scr := scratchPool.Get().(*cluster.Scratch)
	defer scratchPool.Put(scr)
	spec.Cluster.Scratch = scr
	runOpts = append(runOpts, edm.WithPrefixMemo(&prefixMemo))
	res, err := edm.Run(ctx, spec, runOpts...)
	if err == nil && sink != nil {
		err = sink.Flush()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
