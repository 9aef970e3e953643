package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchConfig is the part of BENCHMARK.json this program reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// boundSpec is an end-to-end metric with its direction and bound, the
// share of the baseline median by which it may worsen.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// setFile is a recorded set of runs (see -record).
type setFile struct {
	Trace   bool        `json:"trace"`
	Seconds int         `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric, B against baseline A.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges the runs b against the baseline runs a. A change
// counts when the medians differ by more than the allowance, the bound
// times a's median. The metric is unresolved when either side's
// interquartile spread exceeds the allowance, unless every run of b
// beats every run of a.
func verdict(m boundSpec, a, b []float64) string {
	medA, medB := median(a), median(b)
	allowed := m.Bound * math.Abs(medA)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	noise := math.Max(q3a-q1a, q3b-q1b)
	change := medB - medA // positive is worse for "lower"
	beats := func(y, x float64) bool { return y < x }
	if m.Better == "higher" {
		change = -change
		beats = func(y, x float64) bool { return y > x }
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && beats(y, x)
		}
	}
	switch {
	case noise > allowed && allBetter:
		return better
	case noise > allowed:
		return unresolved
	case change > allowed:
		return worse
	case -change > allowed:
		return better
	}
	return same
}

// rollUp is a workload's verdict over its metrics: worse before
// unresolved before better before same.
func rollUp(vs []string) string {
	for _, want := range []string{worse, unresolved, better} {
		for _, v := range vs {
			if v == want {
				return want
			}
		}
	}
	return same
}

// compare prints one row per workload of B against baseline A under
// BENCHMARK.json's bounds, and reports whether B holds: no metric worse
// or unresolved, every run correct, and every digest equal to A's for
// the same workload and seed.
func compare(out io.Writer, cfg *benchConfig, a, b *setFile) bool {
	ok := true
	values := func(s *setFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range s.Runs {
			if r.Workload == workload {
				if v, found := r.Result.Metrics[metric]; found {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(out, "%-11s %-10s %s\n", "workload", "verdict", "metrics (median A → B, change, spread A/B)")
	for _, w := range cfg.Workloads {
		var vs []string
		var detail []string
		for _, m := range cfg.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(m, xa, xb)
			vs = append(vs, v)
			ma, mb := median(xa), median(xb)
			detail = append(detail, fmt.Sprintf("%s %.4g → %.4g %s (%+.1f%%, %.1f%%/%.1f%%, bound %.0f%%): %s",
				m.Name, ma, mb, m.Unit, 100*ratio(mb-ma, math.Abs(ma)), 100*spread(xa), 100*spread(xb), 100*m.Bound, v))
		}
		if len(vs) == 0 {
			fmt.Fprintf(out, "%-11s %-10s\n", w.Name, "no runs")
			continue
		}
		row := rollUp(vs)
		if row == worse || row == unresolved {
			ok = false
		}
		fmt.Fprintf(out, "%-11s %-10s\n", w.Name, row)
		for _, d := range detail {
			fmt.Fprintf(out, "%24s%s\n", "", d)
		}
	}
	type key struct {
		w string
		s uint64
	}
	digests := make(map[key]string)
	for _, r := range a.Runs {
		digests[key{r.Workload, r.Seed}] = r.Digest
	}
	var bad []string
	for _, s := range []*setFile{a, b} {
		for _, r := range s.Runs {
			if !r.Result.Correct {
				bad = append(bad, fmt.Sprintf("%s seed %d: run not correct (%d of %d units failed)", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted))
			}
		}
	}
	for _, r := range b.Runs {
		if d, found := digests[key{r.Workload, r.Seed}]; found && d != r.Digest {
			bad = append(bad, fmt.Sprintf("%s seed %d: result_digest %.12s… differs from A's %.12s…", r.Workload, r.Seed, r.Digest, d))
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		fmt.Fprintf(out, "FAIL %s\n", msg)
		ok = false
	}
	return ok
}
