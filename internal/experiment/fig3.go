package experiment

import (
	"fmt"
	"strings"

	"edm/internal/flash"
	"edm/internal/trace"
	"edm/internal/wear"
)

// Fig3Point is one (utilization, trace) measurement of the victim
// valid-page ratio next to the Eq.(2) and Eq.(3) estimates.
type Fig3Point struct {
	Utilization float64
	MeasuredUr  float64
	Eq2Ur       float64 // classic LFS estimate (σ = 0)
	Eq3Ur       float64 // EDM estimate (σ = 0.28)
}

// Fig3Series is one workload's sweep.
type Fig3Series struct {
	Trace  string
	Points []Fig3Point
}

// Fig3Result reproduces Fig. 3: measured vs estimated u_r as a function
// of disk utilization, for three real-workload generators and the
// uniform random workload.
type Fig3Result struct {
	Sigma  float64
	Series []Fig3Series
}

// fig3Utilizations is the sweep grid (the paper plots ~10–90%).
var fig3Utilizations = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}

// Fig3 runs the single-SSD trace-replay measurement of u_r.
func Fig3(opts Options) (*Fig3Result, error) {
	opts = opts.withDefaults()
	traces := []string{"home02", "deasna", "lair62", "random"}
	res := &Fig3Result{Sigma: wear.DefaultSigma, Series: make([]Fig3Series, len(traces))}

	type job struct {
		traceIdx, pointIdx int
		u                  float64
		name               string
	}
	var jobList []job
	for ti, name := range traces {
		res.Series[ti] = Fig3Series{Trace: name, Points: make([]Fig3Point, len(fig3Utilizations))}
		for pi, u := range fig3Utilizations {
			jobList = append(jobList, job{ti, pi, u, name})
		}
	}
	errs := make([]error, len(jobList))
	jobs := make([]func(), len(jobList))
	for i, j := range jobList {
		i, j := i, j
		jobs[i] = func() {
			ur, err := measureUr(j.name, j.u, opts)
			if err != nil {
				errs[i] = err
				return
			}
			res.Series[j.traceIdx].Points[j.pointIdx] = Fig3Point{
				Utilization: j.u,
				MeasuredUr:  ur,
				Eq2Ur:       wear.F(j.u, 0),
				Eq3Ur:       wear.F(j.u, wear.DefaultSigma),
			}
		}
	}
	pool(opts.Parallelism, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureUr replays a workload's writes against a single SSD sized so
// the live data sits at utilization u, and returns the measured mean
// victim valid ratio in steady state.
func measureUr(name string, u float64, opts Options) (float64, error) {
	// Fig. 3 needs only the write stream; a deeper scale keeps the
	// single-device experiment fast without losing the skew shape. The
	// random workload keeps a fixed footprint — scaling it down would
	// shrink the device below meaningful GC geometry.
	p := trace.RandomProfile(500, 100000)
	if name != "random" {
		named, err := trace.Workload(name)
		if err != nil {
			return 0, err
		}
		p = named.Scaled(opts.Scale * 2)
	}
	st, err := replaySSD(p, opts.Seed, u, flash.Config{})
	if err != nil {
		return 0, err
	}
	if st.Erases == 0 {
		return 0, fmt.Errorf("experiment: no GC at u=%.2f for %s — workload too small", u, name)
	}
	return st.VictimValidRatio(), nil
}

// replaySSD replays the writes of p's trace against one SSD built from
// fcfg, with the trace's files laid out as consecutive LPA extents and
// the device sized so the live data sits at utilization u. It returns
// the device's stats over one capacity's worth of writes in steady
// state: Fig. 3 and the FTL ablation both measure this way.
func replaySSD(p trace.Profile, seed uint64, u float64, fcfg flash.Config) (flash.Stats, error) {
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return flash.Stats{}, err
	}

	const pageSize = flash.DefaultPageSize
	const ppb = flash.DefaultPagesPerBlock

	// Lay the files out as consecutive LPA extents.
	extents := make(map[trace.FileID]struct{ start, pages int64 }, len(tr.Files))
	var livePages int64
	for _, f := range tr.Files {
		pages := (f.Size + pageSize - 1) / pageSize
		if pages == 0 {
			pages = 1
		}
		extents[f.ID] = struct{ start, pages int64 }{livePages, pages}
		livePages += pages
	}

	// Size the device so live/total == u, keeping GC headroom.
	fcfg.PageSize, fcfg.PagesPerBlock = pageSize, ppb
	fcfg.Blocks = max(int(float64(livePages)/(u*float64(ppb)))+1, int(livePages/ppb)+8)
	ssd, err := flash.New(fcfg)
	if err != nil {
		return flash.Stats{}, err
	}

	// Populate the live set.
	for _, f := range tr.Files {
		e := extents[f.ID]
		if _, err := ssd.WriteN(e.start, int(e.pages)); err != nil {
			return flash.Stats{}, fmt.Errorf("experiment: populate at u=%.2f: %w", u, err)
		}
	}

	replayWrites := func() error {
		for _, r := range tr.Records {
			if r.Kind != trace.OpWrite {
				continue
			}
			e := extents[r.File]
			first := r.Offset / pageSize
			last := (r.Offset + r.Size - 1) / pageSize
			if last >= e.pages {
				last = e.pages - 1
			}
			if first > last {
				continue
			}
			if _, err := ssd.WriteN(e.start+first, int(last-first+1)); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm until the write volume exceeds the device capacity (the
	// paper writes dummy data equal to the capacity to skip the cold
	// start), then measure over at least another capacity's worth. At
	// low utilization one trace pass writes only a fraction of the
	// device, so both phases loop the replay.
	replayUntil := func(pages uint64) error {
		for ssd.Stats().HostPageWrites < pages {
			if err := replayWrites(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := replayUntil(uint64(ssd.TotalPages())); err != nil {
		return flash.Stats{}, err
	}
	ssd.ResetStats()
	if err := replayUntil(uint64(ssd.TotalPages())); err != nil {
		return flash.Stats{}, err
	}
	return ssd.Stats(), nil
}

// Format renders the sweep, one block per workload.
func (r *Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — measured vs estimated u_r (σ = %.2f)\n", r.Sigma)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n%s:\n", s.Trace)
		t := &table{header: []string{"u", "measured ur", "Eq.(2) ur", "Eq.(3) ur", "|meas-Eq2|", "|meas-Eq3|"}}
		for _, p := range s.Points {
			t.add(
				fmt.Sprintf("%.2f", p.Utilization),
				fmt.Sprintf("%.3f", p.MeasuredUr),
				fmt.Sprintf("%.3f", p.Eq2Ur),
				fmt.Sprintf("%.3f", p.Eq3Ur),
				fmt.Sprintf("%.3f", abs(p.MeasuredUr-p.Eq2Ur)),
				fmt.Sprintf("%.3f", abs(p.MeasuredUr-p.Eq3Ur)),
			)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
