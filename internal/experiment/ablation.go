package experiment

import (
	"fmt"
	"strings"

	"edm"
	"edm/internal/cluster"
	"edm/internal/metrics"
	"edm/internal/migration"
	"edm/internal/sim"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Label        string
	Throughput   float64
	Erases       uint64
	EraseRSD     float64
	MovedObjects int
	RemapPeak    int
	Err          error
}

// AblationResult is one ablation study (a labelled sweep).
type AblationResult struct {
	Name string
	Note string
	Rows []AblationRow
}

// Format renders the sweep.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s\n%s\n", r.Name, r.Note)
	t := &table{header: []string{"config", "thr(ops/s)", "erases", "eraseRSD", "moved", "remap peak"}}
	for _, row := range r.Rows {
		if row.Err != nil {
			t.add(row.Label, "ERR: "+row.Err.Error())
			continue
		}
		t.add(row.Label,
			fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprint(row.Erases),
			fmt.Sprintf("%.3f", row.EraseRSD),
			fmt.Sprint(row.MovedObjects),
			fmt.Sprint(row.RemapPeak))
	}
	b.WriteString(t.String())
	return b.String()
}

// ablationRun executes spec on home02 with 16 OSDs.
func ablationRun(opts Options, label string, spec edm.Spec) AblationRow {
	out, err := run(opts, "ablation."+label, ablationSpec(spec), nil)
	return ablationRow(label, out, err)
}

// ablationSpec places spec on home02 with 16 OSDs. Periodic-trigger
// runs compress the wear monitor's cadence to match the scaled replay's
// virtual timescale (the paper's one-minute cadence is calibrated to a
// multi-hour replay).
func ablationSpec(spec edm.Spec) edm.Spec {
	spec.Workload, spec.OSDs = "home02", 16
	if spec.MigrationMode != nil && *spec.MigrationMode == cluster.MigratePeriodic {
		spec.Cluster.TemperatureInterval = sim.Second
	}
	return spec
}

// ablationRow summarises a run's outcome as the row labelled label.
func ablationRow(label string, out *edm.Result, err error) AblationRow {
	if err != nil {
		return AblationRow{Label: label, Err: err}
	}
	return AblationRow{
		Label:        label,
		Throughput:   out.ThroughputOps,
		Erases:       out.AggregateErases,
		EraseRSD:     metrics.RSD(out.EraseCounts),
		MovedObjects: out.MovedObjects,
		RemapPeak:    out.RemapPeak,
	}
}

// periodic is the controller mode of the periodic-trigger ablations.
var periodic = cluster.MigratePeriodic

// AblationLambda sweeps the trigger threshold λ under periodic-trigger
// HDF: small λ migrates eagerly, large λ tolerates imbalance (§III.B.2
// says λ "can be adjusted in real cases" without studying it — we do).
func AblationLambda(opts Options) *AblationResult {
	opts = opts.withDefaults()
	res := &AblationResult{
		Name: "trigger threshold λ (EDM-HDF, periodic wear monitor)",
		Note: "λ gates RSD(E_c); lower values migrate more often",
	}
	lambdas := []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	rows := make([]AblationRow, len(lambdas))
	jobs := make([]func(), len(lambdas))
	for i, l := range lambdas {
		jobs[i] = func() {
			cfg := migration.DefaultConfig()
			cfg.Lambda = l
			rows[i] = ablationRun(opts, fmt.Sprintf("lambda=%.2f", l),
				edm.Spec{Policy: HDF, MigrationMode: &periodic, MigrationConfig: &cfg})
		}
	}
	pool(opts.Parallelism, jobs)
	res.Rows = rows
	return res
}

// AblationRemapPreference toggles §III.C's prefer-already-remapped
// selection and compares remapping-table growth.
func AblationRemapPreference(opts Options) *AblationResult {
	opts = opts.withDefaults()
	res := &AblationResult{
		Name: "remapping-table growth control (EDM-HDF, periodic wear monitor)",
		Note: "PreferRemapped re-moves table entries instead of growing the table (§III.C)",
	}
	rows := make([]AblationRow, 2)
	jobs := make([]func(), 2)
	for i, setting := range []string{"on", "off"} {
		jobs[i] = func() {
			cfg := migration.DefaultConfig()
			cfg.PreferRemapped = setting == "on"
			rows[i] = ablationRun(opts, "prefer-remapped="+setting,
				edm.Spec{Policy: HDF, MigrationMode: &periodic, MigrationConfig: &cfg})
		}
	}
	pool(opts.Parallelism, jobs)
	res.Rows = rows
	return res
}

// AblationGroups sweeps the group count m: more groups confine
// migration to narrower destination sets (better reliability staggering,
// §III.D) at the cost of balancing freedom.
func AblationGroups(opts Options) *AblationResult {
	opts = opts.withDefaults()
	res := &AblationResult{
		Name: "placement group count m (EDM-HDF, midpoint, 16 OSDs)",
		Note: "migration is intra-group: larger m means fewer destinations per source",
	}
	groups := []int{4, 8, 16}
	rows := make([]AblationRow, len(groups))
	jobs := make([]func(), len(groups))
	for i, m := range groups {
		jobs[i] = func() {
			rows[i] = ablationRun(opts, fmt.Sprintf("m=%d", m), edm.Spec{Policy: HDF, Groups: m})
		}
	}
	pool(opts.Parallelism, jobs)
	res.Rows = rows
	return res
}

// AblationCDFCutoff sweeps CDF's minimum source utilization: the paper
// fixes it at 50% from the Fig. 3 knee; the sweep shows why.
func AblationCDFCutoff(opts Options) *AblationResult {
	opts = opts.withDefaults()
	res := &AblationResult{
		Name: "CDF low-utilization cutoff (EDM-CDF, midpoint)",
		Note: "sources below the cutoff are never cooled by shedding cold data (§III.B.5)",
	}
	cutoffs := []float64{0.01, 0.25, 0.5, 0.65}
	rows := make([]AblationRow, len(cutoffs))
	sibs := make([]sibling, len(cutoffs))
	for i, c := range cutoffs {
		cfg := migration.DefaultConfig()
		cfg.MinSourceUtilization = c
		label := fmt.Sprintf("cutoff=%.2f", c)
		sibs[i] = sibling{"ablation." + label, ablationSpec(edm.Spec{Policy: CDF, MigrationConfig: &cfg}),
			func(out *edm.Result, err error) { rows[i] = ablationRow(label, out, err) }}
	}
	runCells(opts, [][]sibling{sibs})
	res.Rows = rows
	return res
}

// Ablations runs every ablation study.
func Ablations(opts Options) []*AblationResult {
	return []*AblationResult{
		AblationLambda(opts),
		AblationRemapPreference(opts),
		AblationGroups(opts),
		AblationCDFCutoff(opts),
	}
}
