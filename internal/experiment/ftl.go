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
// (see replaySSD) under each GC policy and write frontier.
func AblationFTL(opts Options) *FTLResult {
	opts = opts.withDefaults()
	res := &FTLResult{Trace: "home02", Utilization: 0.85}
	configs := []struct {
		label string
		fcfg  flash.Config
	}{
		{"greedy GC, shared frontier (paper's FTL)", flash.Config{}},
		{"greedy GC, separated GC frontier", flash.Config{SeparateGCWrites: true}},
		{"cost-benefit GC, shared frontier", flash.Config{GCPolicy: flash.GCCostBenefit}},
		{"cost-benefit GC, separated GC frontier", flash.Config{GCPolicy: flash.GCCostBenefit, SeparateGCWrites: true}},
	}
	rows := make([]FTLRow, len(configs))
	jobs := make([]func(), len(configs))
	for i, c := range configs {
		i, c := i, c
		jobs[i] = func() {
			p, err := trace.Workload(res.Trace)
			var st flash.Stats
			if err == nil {
				st, err = replaySSD(p.Scaled(opts.Scale*2), opts.Seed, res.Utilization, c.fcfg)
			}
			rows[i] = FTLRow{Label: c.label, Ur: st.VictimValidRatio(), WA: st.WriteAmplification(), Erases: st.Erases, Err: err}
		}
	}
	pool(opts.Parallelism, jobs)
	res.Rows = rows
	return res
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
