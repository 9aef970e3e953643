package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// around returns ten values spread ±width around center.
func around(center, width float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = center + width*(float64(i)/4.5-1)
	}
	return xs
}

func TestVerdict(t *testing.T) {
	lat := boundSpec{Name: "unit_cpu_ms_p50", Better: "lower", Bound: 0.1}
	ops := boundSpec{Name: "sim_ops_per_cpu_s", Better: "higher", Bound: 0.1}
	setup := boundSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name string
		m    boundSpec
		a, b []float64
		want string
	}{
		{"unchanged", lat, around(100, 2), around(101, 2), same},
		{"within bound", lat, around(100, 2), around(108, 2), same},
		{"slower", lat, around(100, 2), around(120, 2), worse},
		{"faster", lat, around(100, 2), around(80, 2), better},
		{"throughput drop", ops, around(1e6, 1e4), around(8e5, 1e4), worse},
		{"throughput gain", ops, around(1e6, 1e4), around(1.2e6, 1e4), better},
		{"noisy baseline", lat, around(100, 40), around(100, 2), unresolved},
		{"noisy but every run faster", lat, around(100, 20), around(50, 20), better},
		{"noisy and overlapping", lat, around(100, 20), around(80, 20), unresolved},
		// The bound is relative, whatever the size of the value.
		{"setup within bound", setup, around(0.002, 0.00005), around(0.0024, 0.00005), same},
		{"setup beyond bound", setup, around(0.002, 0.00005), around(0.0026, 0.00005), worse},
		{"large setup beyond bound", setup, around(2, 0.05), around(2.6, 0.05), worse},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRollUp(t *testing.T) {
	for _, tc := range []struct {
		vs   []string
		want string
	}{
		{[]string{same, same}, same},
		{[]string{same, better}, better},
		{[]string{better, unresolved}, unresolved},
		{[]string{unresolved, worse, better}, worse},
	} {
		if got := rollUp(tc.vs); got != tc.want {
			t.Errorf("rollUp(%v) = %s, want %s", tc.vs, got, tc.want)
		}
	}
}

func set(workload string, digest string, lat []float64) *setFile {
	s := &setFile{}
	for i, v := range lat {
		s.Runs = append(s.Runs, runResult{
			Workload: workload, Seed: uint64(i + 1), Digest: digest,
			Result: resultLine{Correct: true, Attempted: 100, Metrics: map[string]metricValue{
				"unit_cpu_ms_p50": {v, "ms"},
			}},
		})
	}
	return s
}

func TestCompare(t *testing.T) {
	var cfg benchConfig
	cfg.Workloads = append(cfg.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "replay"})
	cfg.EndToEnd = []boundSpec{{Name: "unit_cpu_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}}

	var out bytes.Buffer
	if !compare(&out, &cfg, set("replay", "d1", around(100, 2)), set("replay", "d1", around(102, 2))) {
		t.Errorf("same runs do not hold:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "replay      same") {
		t.Errorf("no row for replay:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, &cfg, set("replay", "d1", around(100, 2)), set("replay", "d1", around(130, 2))) {
		t.Errorf("a 30%% slowdown holds:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, &cfg, set("replay", "d1", around(100, 2)), set("replay", "d2", around(100, 2))) ||
		!strings.Contains(out.String(), "result_digest") {
		t.Errorf("a digest change holds:\n%s", out.String())
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory")
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, defs []metricDef, got [][2]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i] != [2]string{d.name, d.unit} {
				t.Errorf("%s[%d] = %v, program has %s (%s)", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	var e2e, layer [][2]string
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	check("end_to_end", endToEndDefs, e2e)
	check("per_layer", layerDefs, layer)
}
