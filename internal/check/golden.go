package check

import (
	"fmt"

	"edm/internal/cluster"
	"edm/internal/metrics"
	"edm/internal/migration"
	"edm/internal/policy"
	"edm/internal/sim"
	"edm/internal/trace"
)

// GoldenOptions sizes the golden-shape suite. The defaults reproduce
// DESIGN.md §3's expected shapes on a small-but-real workload in a few
// seconds; tests' short mode shrinks the cluster further.
type GoldenOptions struct {
	// Trace is the workload profile (default home02, the paper's most
	// skewed trace and the one every figure leads with).
	Trace string
	// Scale is the workload scale divisor (default 20 — the repo's
	// standard reproduction scale, where every shape margin is widest;
	// short-mode tests halve the work with 40).
	Scale int
	// OSDs is the cluster size (default 16, the paper's first matrix
	// column; short-mode tests reduce to 8).
	OSDs int
	// Seed drives trace generation (default 42).
	Seed uint64
	// Lambda is the migration trigger threshold λ (default 0.1).
	Lambda float64
}

func (o GoldenOptions) withDefaults() GoldenOptions {
	if o.Trace == "" {
		o.Trace = "home02"
	}
	if o.Scale == 0 {
		o.Scale = 20
	}
	if o.OSDs == 0 {
		o.OSDs = 16
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	return o
}

// ShapeResult is one golden shape's verdict. Detail reports the measured
// numbers even on success, so a drifting margin is visible before it
// crosses the threshold.
type ShapeResult struct {
	Name   string
	Detail string
	Err    error
}

func (s ShapeResult) String() string {
	if s.Err != nil {
		return fmt.Sprintf("FAIL %s: %v", s.Name, s.Err)
	}
	return fmt.Sprintf("ok   %s: %s", s.Name, s.Detail)
}

// FirstFailure returns the first failing shape, or nil when all hold.
func FirstFailure(results []ShapeResult) *ShapeResult {
	for i := range results {
		if results[i].Err != nil {
			return &results[i]
		}
	}
	return nil
}

// FormatResults renders the suite outcome, one line per shape.
func FormatResults(results []ShapeResult) string {
	out := "Golden shapes (DESIGN.md §3):\n"
	for _, s := range results {
		out += "  " + s.String() + "\n"
	}
	return out
}

// goldenRun is one policy's checked simulation.
type goldenRun struct {
	res     *cluster.Result
	rep     *Report
	objects int // total objects in the cluster (files × k)
}

// runChecked executes one (policy, workload) cell with the paper's
// midpoint-shuffle methodology and the full invariant machinery on: the
// event-stream checker, then Audit's state audit and cross-checks.
func runChecked(name string, opts GoldenOptions) (*goldenRun, error) {
	pol, err := policy.Parse(name)
	if err != nil {
		return nil, err
	}
	p, err := trace.Workload(opts.Trace)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Generate(p.Scaled(opts.Scale), opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		OSDs:           opts.OSDs,
		Groups:         4,
		ObjectsPerFile: 4,
		Seed:           opts.Seed,
		// Fine response buckets so the Fig. 7 blocking spike is visible
		// on a small scaled run (the default 3min bucket averages it
		// away).
		ResponseBucket: sim.Second / 2,
	}
	if pol != policy.Baseline {
		cfg.Migration = cluster.MigrateMidpoint
	}
	cl, err := cluster.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	ck := Wrap(nil)
	cl.SetRecorder(ck)
	Bind(ck, cl)
	mcfg := migration.DefaultConfig()
	mcfg.Lambda = opts.Lambda
	if planner := pol.Planner(mcfg); planner != nil {
		cl.SetPlanner(planner)
	}
	res, err := cl.Run()
	if err != nil {
		return nil, err
	}
	return &goldenRun{
		res:     res,
		rep:     Audit(cl, ck),
		objects: len(tr.Files) * cfg.ObjectsPerFile,
	}, nil
}

// goldenPolicies is the suite's run set, in execution order.
var goldenPolicies = []string{"baseline", "hdf", "cdf", "cmt"}

// Golden runs the golden-shape regression suite: four checked
// simulations of the same workload (baseline and the three migration
// policies), then DESIGN.md §3's expected shapes as assertions over
// their results. The returned slice has one entry per shape, failures
// included; FirstFailure picks the verdict.
func Golden(opts GoldenOptions) []ShapeResult {
	opts = opts.withDefaults()
	runs := make(map[string]*goldenRun, len(goldenPolicies))
	for _, name := range goldenPolicies {
		out, err := runChecked(name, opts)
		if err != nil {
			return []ShapeResult{{Name: "run-" + name, Err: err}}
		}
		runs[name] = out
	}

	results := []ShapeResult{shapeInvariants(runs)}
	base, hdf, cdf, cmt := runs["baseline"], runs["hdf"], runs["cdf"], runs["cmt"]
	results = append(results,
		shapeWearVariance(base.res),
		shapeThroughput(base.res, hdf.res),
		shapeErases(base.res, hdf.res, cmt.res),
		shapeBlockingSpike(base.res, hdf.res),
		shapeMovedOrdering(cmt.res, cdf.res, hdf.res, hdf.objects),
	)
	return results
}

// shapeInvariants folds the per-run invariant reports into one shape:
// every golden run must execute with zero violations.
func shapeInvariants(runs map[string]*goldenRun) ShapeResult {
	s := ShapeResult{Name: "invariants"}
	events := 0
	for _, name := range goldenPolicies {
		run := runs[name]
		events += run.rep.Events
		if err := run.rep.Err(); err != nil && s.Err == nil {
			s.Err = fmt.Errorf("%s run: %v\n%s", name, err, run.rep)
		}
	}
	s.Detail = fmt.Sprintf("%d events checked across %d runs", events, len(runs))
	return s
}

// shapeWearVariance is Fig. 1: under hash placement alone, skewed write
// traffic leaves the per-SSD erase counts visibly imbalanced — the
// problem EDM exists to fix.
func shapeWearVariance(base *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig1-wear-variance"}
	rsd := metrics.RSD(base.EraseCounts)
	s.Detail = fmt.Sprintf("baseline erase RSD %.3f, %d erases", rsd, base.AggregateErases)
	switch {
	case base.AggregateErases == 0:
		s.Err = fmt.Errorf("no erases measured — workload too light to exercise GC")
	case rsd < 0.05:
		s.Err = fmt.Errorf("baseline erase RSD %.3f below 0.05: hash placement looks balanced, Fig. 1's premise is gone", rsd)
	}
	return s
}

// shapeThroughput is Fig. 5: migrating hot data to cold devices
// improves aggregate throughput over the baseline.
func shapeThroughput(base, hdf *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig5-throughput"}
	s.Detail = fmt.Sprintf("baseline %.1f ops/s, HDF %.1f ops/s (%+.1f%%)",
		base.ThroughputOps, hdf.ThroughputOps,
		(hdf.ThroughputOps/base.ThroughputOps-1)*100)
	if hdf.ThroughputOps <= base.ThroughputOps {
		s.Err = fmt.Errorf("HDF throughput %.1f ops/s not above baseline %.1f ops/s",
			hdf.ThroughputOps, base.ThroughputOps)
	}
	return s
}

// shapeErases is Fig. 6: HDF is the erase-friendliest policy — its
// aggregate erases come in strictly below CMT's (DESIGN.md: "up to ~40%
// vs CMT"; CMT chases load, not wear, and often increases erases) and
// never materially above the baseline's.
func shapeErases(base, hdf, cmt *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig6-hdf-erases"}
	s.Detail = fmt.Sprintf("erases: baseline %d, HDF %d, CMT %d",
		base.AggregateErases, hdf.AggregateErases, cmt.AggregateErases)
	switch {
	case hdf.AggregateErases >= cmt.AggregateErases:
		s.Err = fmt.Errorf("HDF aggregate erases %d not below CMT's %d",
			hdf.AggregateErases, cmt.AggregateErases)
	case float64(hdf.AggregateErases) > float64(base.AggregateErases)*1.02:
		s.Err = fmt.Errorf("HDF aggregate erases %d more than 2%% above baseline %d",
			hdf.AggregateErases, base.AggregateErases)
	}
	return s
}

// shapeBlockingSpike is Fig. 7: HDF's §V.D request blocking produces a
// response-time spike during the migration window that the baseline
// timeline does not show.
func shapeBlockingSpike(base, hdf *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig7-hdf-spike"}
	basePeak := peakMean(base.ResponseSeries)
	hdfPeak := peakMean(hdf.ResponseSeries)
	s.Detail = fmt.Sprintf("peak bucket mean: baseline %.2gs, HDF %.2gs, %d blocked ops",
		basePeak, hdfPeak, hdf.BlockedOps)
	switch {
	case hdf.BlockedOps == 0:
		s.Err = fmt.Errorf("no operations parked on HDF locks — §V.D blocking never engaged")
	case hdfPeak <= basePeak:
		s.Err = fmt.Errorf("HDF peak response %.4gs not above baseline peak %.4gs", hdfPeak, basePeak)
	}
	return s
}

// shapeMovedOrdering is Fig. 8: migration cost ordering CMT > CDF > HDF
// (load balancing relocates more than wear balancing), with every policy
// moving only a tiny fraction of the object population.
func shapeMovedOrdering(cmt, cdf, hdf *cluster.Result, objects int) ShapeResult {
	s := ShapeResult{Name: "fig8-moved-ordering"}
	frac := func(moved int) float64 { return float64(moved) / float64(objects) * 100 }
	s.Detail = fmt.Sprintf("moved CMT %d (%.2f%%), CDF %d (%.2f%%), HDF %d (%.2f%%) of %d objects",
		cmt.MovedObjects, frac(cmt.MovedObjects),
		cdf.MovedObjects, frac(cdf.MovedObjects),
		hdf.MovedObjects, frac(hdf.MovedObjects), objects)
	switch {
	case hdf.MovedObjects < 1:
		s.Err = fmt.Errorf("HDF midpoint shuffle moved nothing")
	case cdf.MovedObjects <= hdf.MovedObjects:
		s.Err = fmt.Errorf("CDF moved %d objects, not above HDF's %d", cdf.MovedObjects, hdf.MovedObjects)
	case cmt.MovedObjects <= cdf.MovedObjects:
		s.Err = fmt.Errorf("CMT moved %d objects, not above CDF's %d", cmt.MovedObjects, cdf.MovedObjects)
	case frac(cmt.MovedObjects) > 2.5:
		s.Err = fmt.Errorf("CMT moved %.2f%% of objects — far beyond the paper's ~1.5%% ceiling", frac(cmt.MovedObjects))
	}
	return s
}

// peakMean returns the largest bucket mean of a response timeline.
func peakMean(points []metrics.Point) float64 {
	peak := 0.0
	for _, p := range points {
		if p.Mean > peak {
			peak = p.Mean
		}
	}
	return peak
}
