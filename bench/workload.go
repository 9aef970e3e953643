package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"edm"
	"edm/internal/trace"
)

// A workload is one traffic mix. Every unit it runs is a pure function
// of the seed and the unit's index, so two runs with one seed do the
// same work in the same order.
type workload interface {
	// start builds what the first unit needs: in-process edmd servers
	// and clients for the serving paths, nothing for the library paths.
	start(ctx context.Context) error
	// unit runs unit i. With a non-nil tracer it runs through the public
	// steps of the calls it makes and records a span around each step.
	unit(ctx context.Context, i int, tr *tracer) outcome
	// verify runs the workload's own output checks off the clock and
	// marks the units that fail them.
	verify(ctx context.Context, outs []*outcome)
	// digest hashes the outputs of the units, which are the first
	// shape.prefix units of a run.
	digest(outs []*outcome) string
	stop()
}

// shape is how a workload's timed phase ends.
type shape struct {
	group int // a timed phase ends on a multiple of this many units
	// prefix is the number of leading units every run completes: the
	// digest and the count metrics cover exactly these, so they repeat
	// for a seed however long the run is. It is at least 100 so that a
	// p90 has ten samples beyond it.
	prefix int
}

// outcome is one unit's result.
type outcome struct {
	start  time.Time
	lat    time.Duration
	cpu    time.Duration // the process's CPU time while the unit ran
	heapMB float64       // the live heap the last GC found, read after the unit
	res    *edm.Result
	extra  *edm.Result // checkpoint: the resumed run, which must equal res
	err    error
	key    traceKey // the trace the unit replays
	ly     layers
	failed string // the first check the unit failed, "" when it passed
}

func (o *outcome) fail(format string, args ...any) {
	if o.failed == "" {
		o.failed = fmt.Sprintf(format, args...)
	}
}

// ops is the number of simulated file operations the unit completed.
func (o *outcome) ops() int {
	n := 0
	for _, r := range []*edm.Result{o.res, o.extra} {
		if r != nil {
			n += r.Completed
		}
	}
	return n
}

// traceKey names a generated trace: a profile at a scale and a seed.
type traceKey struct {
	name  string
	scale int
	seed  uint64
}

func (k traceKey) build() (*trace.Trace, error) {
	return edm.BuildTrace(edm.Spec{Workload: k.name, Scale: k.scale, Seed: k.seed})
}

var (
	profileNames = trace.ProfileNames()
	policies     = edm.AllPolicies()
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"replay", "sweep", "checkpoint", "serve"}

// unitPrefix is the prefix of the per-unit workloads; the sweeps use
// two whole figure matrices (cells) instead.
const unitPrefix = 100

// cells is the size of one seed's figure matrix: 7 traces × {16, 20}
// OSDs × 4 policies.
var cells = len(profileNames) * 2 * len(policies)

// newWorkload returns the workload and its shape. Each timed phase ends
// on a whole rotation of the workload's profiles (and policies), so
// that every run has the same mix of units however many it runs.
func newWorkload(name string, seed uint64) (workload, shape, error) {
	rotation := shape{group: len(profileNames), prefix: unitPrefix}
	switch name {
	case "replay":
		return &replay{seed: seed}, rotation, nil
	case "checkpoint":
		return &checkpoint{seed: seed}, rotation, nil
	case "serve":
		return &serve{seed: seed}, shape{group: len(profileNames) * len(servePolicies), prefix: unitPrefix}, nil
	case "sweep":
		return &sweep{seed: seed}, shape{group: cells, prefix: 2 * cells}, nil
	}
	return nil, shape{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// checkCommon applies the checks every unit must pass: no error, no
// rejected operation, and every record of its trace completed. Units
// that did not count their trace's records are counted here, off the
// clock, from a regenerated trace.
func checkCommon(outs []*outcome) {
	var (
		mu     sync.Mutex
		counts = make(map[traceKey]int)
	)
	var need []traceKey
	for _, o := range outs {
		if o.ly.records == 0 && o.res != nil {
			if _, ok := counts[o.key]; !ok {
				counts[o.key] = -1
				need = append(need, o.key)
			}
		}
	}
	parallel(len(need), func(i int) {
		n := -1 // fails every unit of a trace that cannot be rebuilt
		if tr, err := need[i].build(); err == nil {
			n = len(tr.Records)
		}
		mu.Lock()
		counts[need[i]] = n
		mu.Unlock()
	})
	for _, o := range outs {
		switch {
		case o.err != nil:
			o.fail("error: %v", o.err)
		case o.res == nil:
			o.fail("no result")
		case o.res.Rejected > 0:
			o.fail("%d operations rejected", o.res.Rejected)
		default:
			want := o.ly.records
			if want == 0 {
				want = counts[o.key]
			}
			for _, r := range []*edm.Result{o.res, o.extra} {
				if r != nil && r.Completed != want {
					o.fail("completed %d of %d trace records", r.Completed, want)
				}
			}
		}
	}
}

// parallel runs fn(0..n-1) on two goroutines, the benchmark's core
// count, and waits for them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sample picks n distinct unit indices below limit, seeded, in order.
func sample(seed uint64, n, limit int) []int {
	idx := rand.New(rand.NewSource(int64(seed))).Perm(limit)[:n]
	sort.Ints(idx)
	return idx
}

// checkAgainst re-runs the sampled units with ref, off the clock, and
// marks a unit failed when the reference errs or its result is not
// byte-identical to the unit's.
func checkAgainst(outs []*outcome, idx []int, ref func(i int) (*edm.Result, error)) {
	parallel(len(idx), func(k int) {
		if idx[k] >= len(outs) {
			return // a run cut short by the time cap; it fails on its unit count
		}
		o := outs[idx[k]]
		if o.res == nil {
			return
		}
		want, err := ref(idx[k])
		if err != nil {
			o.fail("reference run: %v", err)
			return
		}
		if !sameResult(o.res, want) {
			o.fail("result differs from its reference run")
		}
	})
}

// checkedRun is the reference for a library unit: the same spec under
// edm.WithCheck, which audits the event stream and the end state.
func checkedRun(ctx context.Context, spec edm.Spec) (*edm.Result, error) {
	return edm.Run(ctx, spec, edm.WithCheck())
}

func resultJSON(r *edm.Result) []byte {
	raw, err := json.Marshal(r)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return raw
}

func sameResult(a, b *edm.Result) bool {
	return string(resultJSON(a)) == string(resultJSON(b))
}

// resultDigest is SHA-256 over the Result JSON of the units, in order.
func resultDigest(outs []*outcome) string {
	h := sha256.New()
	for _, o := range outs {
		if o.res == nil {
			h.Write([]byte("missing\n"))
			continue
		}
		h.Write(resultJSON(o.res))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
