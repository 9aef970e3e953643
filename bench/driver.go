package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupChildren is how many extra child processes only set up and
// exit, so setup_s is a median over several process starts.
const setupChildren = 10

// childReport is what a child process prints as its one stdout line.
type childReport struct {
	SetupS   float64            `json:"setup_s"`  // CPU time from exec to ready for the first unit, scaled
	ProbeMs  float64            `json:"probe_ms"` // the probe's median time in the timed phase
	Units    int                `json:"units"`
	Failed   int                `json:"failed"`
	Digest   string             `json:"result_digest"`
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one run of one workload: its result line plus what the
// record and compare modes need to know about it.
type runResult struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Units    int        `json:"units"`
	Digest   string     `json:"result_digest"`
	Result   resultLine `json:"result"`
}

// runOnce measures one workload with one seed. The workload runs in a
// child process with GOMAXPROCS=2; an untraced run first starts
// setupChildren children that only set up, for setup_s.
func runOnce(name string, seed uint64, seconds int, traced bool, outDir string) (*runResult, error) {
	if _, _, err := newWorkload(name, seed); err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatUint(seed, 10)}
	var setups []float64
	if !traced {
		for k := 0; k < setupChildren; k++ {
			rep, err := spawn(append(args, "-probe"))
			if err != nil {
				return nil, err
			}
			setups = append(setups, rep.SetupS)
		}
	}
	args = append(args, "-seconds", strconv.Itoa(seconds), "-out", outDir)
	if traced {
		args = append(args, "-trace", "1")
	}
	rep, err := spawn(args)
	if err != nil {
		return nil, err
	}
	defs := endToEndDefs
	if traced {
		defs = layerDefs
	} else {
		rep.Metrics["setup_s"] = median(append(setups, rep.SetupS))
	}
	line := resultLine{
		Correct:   rep.Failed == 0 && len(rep.Problems) == 0,
		Attempted: rep.Units,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok {
			line.Correct = false
			rep.Problems = append(rep.Problems, "metric "+d.name+" missing")
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	printSummary(os.Stderr, name, seed, traced, rep, line, defs)
	return &runResult{Workload: name, Seed: seed, Units: rep.Units, Digest: rep.Digest, Result: line}, nil
}

// spawn runs this executable as a child with args and returns its
// report.
func spawn(args []string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	return &rep, nil
}

// child is the measuring process: it sets the workload up, runs the
// timed phase, checks the outputs off the clock and prints its report.
// A probe child stops after setting up. The set-up time is the CPU time
// the process spent from its start to being ready for the first unit,
// Go runtime start included, scaled to the nominal host speed.
func child(name string, seed uint64, seconds int, traced, probe bool, outDir string) error {
	ctx := context.Background()
	w, sh, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := w.start(ctx); err != nil {
		return err
	}
	defer w.stop()
	setup := processCPU()
	pr := newProbe()
	rep := childReport{SetupS: setup.Seconds() * pr.setupScale()}
	if probe {
		return json.NewEncoder(os.Stdout).Encode(rep)
	}

	var tr *tracer
	var plain *phase
	if traced {
		tr = &tracer{}
		// The untraced run of the prefix, after a warm-up second so that
		// neither side pays the first connections and heap growth: the
		// traced units must give the same bytes, and their time is the
		// base of trace_overhead_frac.
		measure(ctx, w, pr, nil, func(units int, elapsed time.Duration) bool {
			return units > 0 && elapsed >= time.Second
		})
		plain = measure(ctx, w, pr, nil, upTo(sh.prefix))
	}
	a := measure(ctx, w, pr, tr, timed(sh, time.Duration(seconds)*time.Second))
	rep.Units = len(a.outs)
	rep.ProbeMs = median(a.speed.probes()) / 1e6
	if rep.Units < sh.prefix {
		rep.Problems = append(rep.Problems, fmt.Sprintf("only %d of the %d prefix units ran before the time cap", rep.Units, sh.prefix))
	}

	checkCommon(a.outs)
	w.verify(ctx, a.outs)
	rep.Digest = w.digest(a.outs[:min(len(a.outs), sh.prefix)])

	if traced {
		for i := 0; i < sh.prefix && i < len(a.outs) && i < len(plain.outs); i++ {
			if x, y := a.outs[i], plain.outs[i]; x.res != nil && (y.res == nil || !sameResult(x.res, y.res)) {
				x.fail("traced result differs from the untraced call's")
			}
		}
		var extra map[string]float64
		if c, ok := w.(interface{ counters() map[string]float64 }); ok {
			extra = c.counters()
		}
		spans := tr.spans
		rep.Metrics = layerMetrics(a, plain, sh.prefix, spans, extra)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		if err := writeChromeTrace(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans -> %s\n", len(spans), path)
	} else {
		m, err := endToEnd(a, sh.prefix)
		if err != nil {
			rep.Problems = append(rep.Problems, err.Error())
			m = map[string]float64{}
		}
		rep.Metrics = m
	}

	for i, o := range a.outs {
		if o.failed != "" {
			rep.Failed++
			if rep.Failed <= 5 {
				rep.Problems = append(rep.Problems, fmt.Sprintf("unit %d: %s", i, o.failed))
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// printSummary writes the run's metrics, unit count and digest for a
// reader.
func printSummary(w io.Writer, name string, seed uint64, traced bool, rep *childReport, line resultLine, defs []metricDef) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "bench: %s seed %d (%s): %d units, %d failed, result_digest %s\n",
		name, seed, mode, rep.Units, rep.Failed, rep.Digest)
	fmt.Fprintf(w, "  host probe %.4f ms CPU (nominal %.4f ms): times are scaled by %.4f\n",
		rep.ProbeMs, ms(probeNominal), ms(probeNominal)/rep.ProbeMs)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	if traced {
		sort.Strings(names)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}
