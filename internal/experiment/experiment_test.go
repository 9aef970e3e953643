package experiment

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"edm"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// fastOpts keeps experiment tests quick: deep scale, one cluster size,
// two traces.
func fastOpts() Options {
	return Options{
		Scale:     400,
		Seed:      5,
		OSDCounts: []int{16},
		Traces:    []string{"home02", "lair62"},
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Format()
	for _, name := range []string{"home02", "deasna2", "lair62b"} {
		if !strings.Contains(out, name) {
			t.Fatalf("format missing %s:\n%s", name, out)
		}
	}
}

func TestMatrixAndProjections(t *testing.T) {
	opts := fastOpts()
	cells := Matrix(opts)
	if len(cells) != len(opts.Traces)*len(opts.OSDCounts)*len(AllPolicies) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%d/%s: %v", c.Trace, c.OSDs, c.Policy, c.Err)
		}
		if c.Result == nil || c.Result.Completed == 0 {
			t.Fatalf("%s/%d/%s: empty result", c.Trace, c.OSDs, c.Policy)
		}
	}
	if FindCell(cells, "home02", 16, HDF) == nil {
		t.Fatal("FindCell failed")
	}
	if FindCell(cells, "home02", 99, HDF) != nil {
		t.Fatal("FindCell returned a phantom cell")
	}

	for _, out := range []string{
		Fig5(opts, cells).Format(),
		Fig6(opts, cells).Format(),
		Fig8(opts, cells).Format(),
	} {
		if !strings.Contains(out, "home02") || !strings.Contains(out, "EDM-HDF") {
			t.Fatalf("projection format incomplete:\n%s", out)
		}
		if strings.Contains(out, "ERR") {
			t.Fatalf("projection reports errors:\n%s", out)
		}
	}
}

func TestMatrixDeterministic(t *testing.T) {
	opts := fastOpts()
	opts.Traces = []string{"home02"}
	a := Matrix(opts)
	b := Matrix(opts)
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if ra.Makespan != rb.Makespan || ra.AggregateErases != rb.AggregateErases {
			t.Fatalf("cell %d diverged despite identical options", i)
		}
	}
}

func TestFig1(t *testing.T) {
	res, err := Fig1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.EraseCounts) != res.OSDs || len(s.WritePages) != res.OSDs {
			t.Fatalf("%s: per-OSD lengths wrong", s.Trace)
		}
		var total uint64
		for _, e := range s.EraseCounts {
			total += e
		}
		if total == 0 {
			t.Fatalf("%s: no erases measured", s.Trace)
		}
	}
	if out := res.Format(); !strings.Contains(out, "RSD") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 80 // fig3 needs enough volume per device
	res, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	var random, home *Fig3Series
	for i := range res.Series {
		switch res.Series[i].Trace {
		case "random":
			random = &res.Series[i]
		case "home02":
			home = &res.Series[i]
		}
	}
	if random == nil || home == nil {
		t.Fatal("missing series")
	}
	// The paper's two claims: the random workload matches Eq.(2); the
	// real workloads sit well below it (that is what σ corrects).
	for _, p := range random.Points {
		if p.Utilization >= 0.5 && p.Utilization <= 0.85 {
			if diff := abs(p.MeasuredUr - p.Eq2Ur); diff > 0.1 {
				t.Fatalf("random at u=%.2f: measured %v vs Eq2 %v", p.Utilization, p.MeasuredUr, p.Eq2Ur)
			}
		}
	}
	for _, p := range home.Points {
		if p.Utilization >= 0.6 && p.Utilization <= 0.85 {
			if p.MeasuredUr >= p.Eq2Ur {
				t.Fatalf("home02 at u=%.2f: measured %v not below Eq2 %v", p.Utilization, p.MeasuredUr, p.Eq2Ur)
			}
		}
	}
	if out := res.Format(); !strings.Contains(out, "Eq.(3)") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestFig7(t *testing.T) {
	res, err := Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 9 { // 3 traces × 3 policies
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s/%s: empty timeline", s.Trace, s.Policy)
		}
		// A migration policy may legitimately plan nothing on a tiny
		// scaled workload; when a round did fire, its window must be
		// well-formed.
		if s.Policy != Baseline && s.MigrationStart > 0 && s.MigrationEnd <= s.MigrationStart {
			t.Fatalf("%s/%s: malformed migration window", s.Trace, s.Policy)
		}
	}
	if out := res.Format(); !strings.Contains(out, "migration window") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	opts := fastOpts()
	for _, res := range Ablations(opts) {
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", res.Name)
		}
		for _, row := range res.Rows {
			if row.Err != nil {
				t.Fatalf("%s/%s: %v", res.Name, row.Label, row.Err)
			}
		}
		if out := res.Format(); !strings.Contains(out, "Ablation") {
			t.Fatalf("format:\n%s", out)
		}
	}
}

// TestAblationHonoursCheckAndTelemetry: Options.Check and
// Options.Telemetry reach the ablation runs like every other run.
func TestAblationHonoursCheckAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.Check = true
	opts.Telemetry = telemetry.SinkConfig{Dir: dir, Events: "all"}
	res := AblationGroups(opts)
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Fatalf("%s: %v", row.Label, row.Err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "ablation.*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(res.Rows); len(files) != want {
		t.Fatalf("ablation wrote %d telemetry files, want %d: %v", len(files), want, files)
	}
}

func TestBuildTraceErrors(t *testing.T) {
	if _, err := buildTrace("bogus", fastOpts()); err == nil {
		t.Fatal("unknown trace should fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "y")
	tb.add("wide-cell", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %q", out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

func TestAblationFTL(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 80
	res := AblationFTL(opts)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Fatalf("%s: %v", row.Label, row.Err)
		}
		if row.WA < 1 || row.Ur < 0 || row.Erases == 0 {
			t.Fatalf("%s: degenerate %+v", row.Label, row)
		}
	}
	// The paper's FTL (row 0) must not beat the fully-refined FTL
	// (row 3) on write amplification for this skewed workload.
	if res.Rows[0].WA < res.Rows[3].WA {
		t.Fatalf("refinements should not hurt: %.3f vs %.3f", res.Rows[0].WA, res.Rows[3].WA)
	}
	if !strings.Contains(res.Format(), "cost-benefit") {
		t.Fatal("format missing rows")
	}
}

func TestAblationOpenLoop(t *testing.T) {
	opts := fastOpts()
	res, err := AblationOpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineOps <= 0 {
		t.Fatal("no baseline capacity")
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At the highest load, HDF must beat the baseline's mean response
	// time (the open-loop regime is where balancing pays most).
	var baseHigh, hdfHigh float64
	for _, row := range res.Rows {
		if row.LoadFraction == 0.95 {
			switch row.Policy {
			case Baseline:
				baseHigh = row.MeanRTms
			case HDF:
				hdfHigh = row.MeanRTms
			}
		}
	}
	if hdfHigh >= baseHigh {
		t.Fatalf("open-loop 95%%: HDF %.2fms vs baseline %.2fms", hdfHigh, baseHigh)
	}
	if !strings.Contains(res.Format(), "open-loop") {
		t.Fatal("format incomplete")
	}
}

// TestMatrixWithSelfCheck runs a small matrix cell set with Options.Check
// on: every simulation must pass edm.WithCheck's checker and state audit.
func TestMatrixWithSelfCheck(t *testing.T) {
	opts := fastOpts()
	opts.Traces = []string{"home02"}
	opts.Check = true
	for _, c := range Matrix(opts) {
		if c.Err != nil {
			t.Fatalf("%s/%d/%s failed under check: %v", c.Trace, c.OSDs, c.Policy, c.Err)
		}
	}
}

func TestParseOSDCounts(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"16", []int{16}, false},
		{"16,20", []int{16, 20}, false},
		{"16, 20", []int{16, 20}, false},
		{" 8 , 12 ", []int{8, 12}, false},
		{"", nil, true},
		{"0", nil, true},
		{"-4", nil, true},
		{"16,x", nil, true},
		{"16,zero", nil, true},
	}
	for _, c := range cases {
		got, err := ParseOSDCounts(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseOSDCounts(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseOSDCounts(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseOSDCounts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestBuildTraceSingleFlight has goroutines miss one key of the trace
// memo together: they must all get one pointer, from one generation.
func TestBuildTraceSingleFlight(t *testing.T) {
	var generations atomic.Int64
	gen := generate
	defer func() { generate = gen }()
	generate = func(spec edm.Spec) (*trace.Trace, error) {
		generations.Add(1)
		return gen(spec)
	}
	traceMu.Lock()
	traceCache = nil // a miss, whatever earlier tests memoized
	traceMu.Unlock()
	opts := Options{Scale: 400, Seed: 991}
	const n = 8
	got := make([]*trace.Trace, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := buildTrace("home03", opts)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	wg.Wait()
	if g := generations.Load(); g != 1 {
		t.Errorf("%d goroutines missing one key generated the trace %d times, want once", n, g)
	}
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("goroutine %d got trace %p, goroutine 0 got %p", i, tr, got[0])
		}
	}
}
