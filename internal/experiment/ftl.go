package experiment

import (
	"fmt"
	"strings"

	"edm/internal/flash"
	"edm/internal/trace"
)

// FTLRow is one FTL configuration's steady-state wear behaviour.
type FTLRow struct {
	Label  string
	Ur     float64
	WA     float64
	Erases uint64
	Err    error
}

// FTLResult compares the paper's FTL (greedy GC, one shared write
// frontier [11][6]) against two classic refinements: a separated GC
// relocation frontier (hot/cold page separation inside the FTL — the
// effect Fig. 3 measures at the workload level) and the LFS
// cost-benefit cleaner [18].
type FTLResult struct {
	Trace       string
	Utilization float64
	Rows        []FTLRow
}

// AblationFTL replays a skewed workload's writes against a single SSD
// with each frontier configuration.
func AblationFTL(opts Options) *FTLResult {
	opts = opts.withDefaults()
	res := &FTLResult{Trace: "home02", Utilization: 0.85}
	configs := []struct {
		label    string
		separate bool
		policy   flash.GCPolicy
	}{
		{"greedy GC, shared frontier (paper's FTL)", false, flash.GCGreedy},
		{"greedy GC, separated GC frontier", true, flash.GCGreedy},
		{"cost-benefit GC, shared frontier", false, flash.GCCostBenefit},
		{"cost-benefit GC, separated GC frontier", true, flash.GCCostBenefit},
	}
	rows := make([]FTLRow, len(configs))
	jobs := make([]func(), len(configs))
	for i, c := range configs {
		i, c := i, c
		jobs[i] = func() {
			ur, wa, erases, err := measureFTL(res.Trace, res.Utilization, c.separate, c.policy, opts)
			rows[i] = FTLRow{Label: c.label, Ur: ur, WA: wa, Erases: erases, Err: err}
		}
	}
	pool(opts.Parallelism, jobs)
	res.Rows = rows
	return res
}

// measureFTL is measureUr extended to report write amplification and
// erase counts for a given frontier configuration.
func measureFTL(name string, u float64, separate bool, policy flash.GCPolicy, opts Options) (ur, wa float64, erases uint64, err error) {
	p, err := trace.Workload(name)
	if err != nil {
		return 0, 0, 0, err
	}
	tr, err := trace.Generate(p.Scaled(opts.Scale*2), opts.Seed)
	if err != nil {
		return 0, 0, 0, err
	}

	const pageSize = flash.DefaultPageSize
	const ppb = flash.DefaultPagesPerBlock
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
	blocks := int(float64(livePages)/(u*float64(ppb))) + 1
	if min := int(livePages/ppb) + 8; blocks < min {
		blocks = min
	}
	ssd, err := flash.New(flash.Config{
		PageSize:         pageSize,
		PagesPerBlock:    ppb,
		Blocks:           blocks,
		GCPolicy:         policy,
		SeparateGCWrites: separate,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, f := range tr.Files {
		e := extents[f.ID]
		if _, err := ssd.WriteN(e.start, int(e.pages)); err != nil {
			return 0, 0, 0, err
		}
	}
	replay := func() error {
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
	until := func(pages uint64) error {
		for ssd.Stats().HostPageWrites < pages {
			if err := replay(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := until(uint64(ssd.TotalPages())); err != nil {
		return 0, 0, 0, err
	}
	ssd.ResetStats()
	if err := until(uint64(ssd.TotalPages())); err != nil {
		return 0, 0, 0, err
	}
	st := ssd.Stats()
	return st.VictimValidRatio(), st.WriteAmplification(), st.Erases, nil
}

// Format renders the comparison.
func (r *FTLResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — FTL hot/cold separation (%s writes, u = %.2f, single SSD)\n", r.Trace, r.Utilization)
	b.WriteString("GC relocations on their own frontier keep cold pages out of hot blocks\n")
	t := &table{header: []string{"FTL", "measured ur", "write amp", "erases"}}
	for _, row := range r.Rows {
		if row.Err != nil {
			t.add(row.Label, "ERR: "+row.Err.Error())
			continue
		}
		t.add(row.Label,
			fmt.Sprintf("%.3f", row.Ur),
			fmt.Sprintf("%.3f", row.WA),
			fmt.Sprint(row.Erases))
	}
	b.WriteString(t.String())
	return b.String()
}
