// Command bench is the end-to-end benchmark of the EDM simulator and
// the serving stack around it: four workloads (replay, sweep,
// checkpoint, serve), end-to-end metrics from untraced runs and
// per-layer metrics from traced ones, measured by timing calls into the
// layers' public functions. README.md describes the workloads and every
// metric. Run it from the repository root through the build wrapper:
//
//	bash bench/run.sh --workload replay --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -record set.json -runs 10 [-trace 1] [-workload a,b]
//	bash bench/run.sh -compare A.json B.json
//
// A single run prints a summary on stderr and, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}; it exits 1 when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames, ", ")+"); with -record, a comma-separated subset")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 25, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
		outDir   = flag.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's Chrome trace file")
		record   = flag.String("record", "", "run every workload with seeds 1..-runs and write the set of results to this file")
		runs     = flag.Int("runs", 10, "seeds per workload for -record")
		cmpSets  = flag.Bool("compare", false, "compare two recorded sets, baseline first: -compare A.json B.json")
		config   = flag.String("benchmark", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
		childW   = flag.String("child", "", "internal: measure this workload in this process")
		probe    = flag.Bool("probe", false, "internal: the child only sets up")
	)
	flag.Parse()

	var err error
	switch {
	case *childW != "":
		err = child(*childW, *seed, *seconds, *traced == 1, *probe, *outDir)
	case *cmpSets:
		err = compareFiles(*config, flag.Args())
	case *record != "":
		names := workloadNames
		if *workload != "" {
			names = strings.Split(*workload, ",")
		}
		err = recordSet(*record, names, *runs, *seconds, *traced == 1, *outDir)
	case *workload != "":
		var r *runResult
		if r, err = runOnce(*workload, *seed, *seconds, *traced == 1, *outDir); err == nil {
			if err = json.NewEncoder(os.Stdout).Encode(r.Result); err == nil && !r.Result.Correct {
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// recordSet runs each workload once per seed 1..runs and writes the
// results to path, rewriting it after every run so a long recording
// keeps what it has. It fails when a run is not correct.
func recordSet(path string, names []string, runs, seconds int, traced bool, outDir string) error {
	set := setFile{Trace: traced, Seconds: seconds}
	for s := 1; s <= runs; s++ {
		for _, name := range names {
			r, err := runOnce(name, uint64(s), seconds, traced, outDir)
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, *r)
			raw, err := json.MarshalIndent(set, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	var bad []string
	for _, r := range set.Runs {
		if !r.Result.Correct {
			bad = append(bad, fmt.Sprintf("%s seed %d not correct", r.Workload, r.Seed))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// compareFiles is -compare: baseline set first, then the set judged.
func compareFiles(config string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two set files, baseline first")
	}
	var cfg benchConfig
	var a, b setFile
	for _, f := range []struct {
		path string
		v    any
	}{{config, &cfg}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	if !compare(os.Stdout, &cfg, &a, &b) {
		return fmt.Errorf("%s does not hold against %s", args[1], args[0])
	}
	return nil
}
