package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"edm"
	"edm/internal/check"
	"edm/internal/cluster"
	"edm/internal/sim"
	"edm/internal/trace"
)

// Scenario is one fully seeded stress case: a small cluster, a small
// synthetic workload, and a fault plan. Every field is serializable;
// running the same scenario twice produces byte-identical verdicts.
type Scenario struct {
	// Seed drives workload generation (and nothing else: the cluster
	// and schedule are deterministic given the inputs).
	Seed uint64 `json:"seed"`

	// Cluster shape: K ≤ Groups ≤ OSDs (placement.Layout's law).
	OSDs   int `json:"osds"`
	Groups int `json:"groups"`
	K      int `json:"k"`

	// Workload shape.
	Files   int `json:"files"`
	Writes  int `json:"writes"`
	Reads   int `json:"reads"`
	Users   int `json:"users"`
	Records int `json:"records"` // trace truncated to this many records (0 = no cap)

	// Policy is baseline, hdf, cdf or cmt ("" = baseline). Migration
	// is never, midpoint or periodic ("" = midpoint unless baseline).
	Policy    string  `json:"policy,omitempty"`
	Migration string  `json:"migration,omitempty"`
	Lambda    float64 `json:"lambda,omitempty"`

	// PlantBug arms a deliberate defect (cluster.TestHooks) for the
	// harness's self-test. Production scenarios leave it empty.
	PlantBug string `json:"plant_bug,omitempty"`

	Plan Plan `json:"plan"`
}

// PlantBugMiscountLostOps is the planted defect the self-test hunts:
// degraded fan-out miscounts a successful k−1 reconstruction as lost.
const PlantBugMiscountLostOps = "miscount-lost-ops"

// Verdict is the deterministic outcome of running one scenario.
type Verdict struct {
	OK         bool     `json:"ok"`
	Violations []string `json:"violations"`

	Events      int      `json:"events"`
	Completed   int      `json:"completed"`
	LostOps     uint64   `json:"lost_ops"`
	DegradedOps uint64   `json:"degraded_ops"`
	Makespan    sim.Time `json:"makespan"`

	// Digest is an FNV-1a hash over every field above — the quick
	// byte-identity check for replayed repros.
	Digest string `json:"digest"`
}

// Rules returns the set of violated rule identifiers (the prefix
// before the first ':' of each violation).
func (v Verdict) Rules() map[string]bool {
	out := make(map[string]bool, len(v.Violations))
	for _, s := range v.Violations {
		rule := s
		if i := strings.IndexByte(s, ':'); i >= 0 {
			rule = s[:i]
		}
		out[rule] = true
	}
	return out
}

// SharesRule reports whether v violates any rule in rules — the
// shrinker's "still the same failure" criterion.
func (v Verdict) SharesRule(rules map[string]bool) bool {
	for r := range v.Rules() {
		if rules[r] {
			return true
		}
	}
	return false
}

func (v *Verdict) seal() {
	if v.Violations == nil {
		v.Violations = []string{}
	}
	sort.Strings(v.Violations)
	v.OK = len(v.Violations) == 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|", v.Events, v.Completed, v.LostOps, v.DegradedOps, v.Makespan)
	for _, s := range v.Violations {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	v.Digest = fmt.Sprintf("%016x", h.Sum64())
}

// Validate checks the scenario's structural laws before a run.
func (sc Scenario) Validate() error {
	switch {
	case sc.OSDs <= 0:
		return fmt.Errorf("chaos: scenario needs OSDs > 0, got %d", sc.OSDs)
	case sc.Groups <= 0 || sc.Groups > sc.OSDs:
		return fmt.Errorf("chaos: scenario needs 0 < Groups ≤ OSDs, got %d/%d", sc.Groups, sc.OSDs)
	case sc.K <= 0 || sc.K > sc.Groups:
		return fmt.Errorf("chaos: scenario needs 0 < K ≤ Groups, got %d/%d", sc.K, sc.Groups)
	case sc.Files <= 0:
		return fmt.Errorf("chaos: scenario needs Files > 0, got %d", sc.Files)
	case sc.Writes+sc.Reads <= 0:
		return fmt.Errorf("chaos: scenario needs operations, got %d writes %d reads", sc.Writes, sc.Reads)
	case sc.Users <= 0:
		return fmt.Errorf("chaos: scenario needs Users > 0, got %d", sc.Users)
	case sc.Records < 0:
		return fmt.Errorf("chaos: negative record cap %d", sc.Records)
	}
	switch sc.PlantBug {
	case "", PlantBugMiscountLostOps:
	default:
		return fmt.Errorf("chaos: unknown planted bug %q", sc.PlantBug)
	}
	return sc.Plan.Validate(sc.OSDs)
}

// BuildTrace materialises the scenario's workload: a seeded synthetic
// trace truncated to the record cap.
func (sc Scenario) BuildTrace() (*trace.Trace, error) {
	p := trace.Profile{
		Name:              "chaos",
		FileCount:         sc.Files,
		WriteCount:        sc.Writes,
		AvgWriteSize:      16 << 10,
		ReadCount:         sc.Reads,
		AvgReadSize:       24 << 10,
		Users:             sc.Users,
		WriteSkew:         1.1,
		ReadSkew:          0.9,
		MeanFileSize:      128 << 10,
		FileSizeCV:        0.6,
		RepeatProb:        0.2,
		ReadWriteAffinity: 0.7,
		WriteWorkingSet:   0.5,
	}
	tr, err := trace.Generate(p, sc.Seed)
	if err != nil {
		return nil, err
	}
	if sc.Records > 0 && len(tr.Records) > sc.Records {
		tr.Records = tr.Records[:sc.Records]
	}
	return tr, nil
}

// scenarioEnv is one wired scenario execution: the cluster plus the
// checker and injector whose post-run state seals the verdict. The
// snapshot round-trip test rebuilds an identical env to resume a
// checkpointed scenario — the process-local pieces (checker, injector,
// test hooks) cannot ride in a snapshot, so re-wiring them must be
// reproducible from the Scenario alone.
type scenarioEnv struct {
	cl      *cluster.Cluster
	checker *check.Checker
	inj     *Injector
}

// build wires the scenario into a ready-to-run cluster.
// checkpointEvery > 0 arms the engine's checkpoint cadence; the caller
// attaches the hook itself with cl.SetCheckpoint.
func (sc Scenario) build(checkpointEvery uint64) (*scenarioEnv, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tr, err := sc.BuildTrace()
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("trace truncated to zero records")
	}

	pol := edm.PolicyBaseline
	if sc.Policy != "" {
		if pol, err = edm.ParsePolicy(sc.Policy); err != nil {
			return nil, err
		}
	}
	var mode *cluster.MigrationMode // nil keeps the policy's default
	if sc.Migration != "" {
		m, err := cluster.ParseMigrationMode(sc.Migration)
		if err != nil {
			return nil, err
		}
		mode = &m
	}

	checker := check.Wrap(nil)
	inj := NewInjector(checker, sc.Plan)
	spec := edm.Spec{
		Trace:          tr,
		OSDs:           sc.OSDs,
		Groups:         sc.Groups,
		ObjectsPerFile: sc.K,
		Policy:         pol,
		MigrationMode:  mode,
		Lambda:         sc.Lambda,
		Seed:           sc.Seed,
		Cluster: cluster.Config{
			WarmupDisabled:  true,
			CheckpointEvery: checkpointEvery,
			TestHooks: cluster.TestHooks{
				MiscountLostOps: sc.PlantBug == PlantBugMiscountLostOps,
			},
		},
	}
	cl, err := edm.NewCluster(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	cl.SetRecorder(inj)
	check.Bind(checker, cl)
	inj.Arm(cl, sc.Plan)
	return &scenarioEnv{cl: cl, checker: checker, inj: inj}, nil
}

// verdict seals the outcome of a finished run: the checker's audit,
// the injector's fault-aware invariants, and the result counters.
func (env *scenarioEnv) verdict(res *edm.Result) Verdict {
	var v Verdict
	rep := check.Audit(env.cl, env.checker)
	v.Events = rep.Events
	for _, viol := range rep.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	if rep.Dropped > 0 {
		v.Violations = append(v.Violations, fmt.Sprintf("check.dropped: %d violations beyond the report cap", rep.Dropped))
	}
	v.Violations = append(v.Violations, env.inj.Violations(res)...)

	v.Completed = res.Completed
	v.LostOps = res.LostOps
	v.DegradedOps = res.DegradedOps
	v.Makespan = res.Makespan
	v.seal()
	return v
}

// RunScenario executes one scenario under the full invariant checker
// plus the fault-aware chaos invariants and returns its verdict. A
// scenario that cannot even start (invalid shape, trace generation
// failure, run error) yields a verdict violating "run.error" rather
// than an out-of-band error, so the shrinker and the stress loop
// handle broken candidates uniformly.
func RunScenario(sc Scenario) Verdict {
	var v Verdict
	fail := func(format string, args ...any) Verdict {
		v.Violations = append(v.Violations, "run.error: "+fmt.Sprintf(format, args...))
		v.seal()
		return v
	}
	env, err := sc.build(0)
	if err != nil {
		return fail("%v", err)
	}
	res, err := env.cl.RunContext(context.Background())
	if err != nil {
		return fail("run: %v", err)
	}
	return env.verdict(res)
}

// GenScenario derives a random but fully determined scenario from a
// seed: same seed, same scenario, field for field.
func GenScenario(seed uint64) Scenario {
	r := rand.New(rand.NewSource(int64(seed)))
	sc := Scenario{Seed: seed}

	// Layout laws: RAID-5 needs stripe width K ≥ 3, placement needs
	// K ≤ Groups and OSDs divisible by Groups (no group-rotate here).
	sc.Groups = 3 + r.Intn(2)             // 3 or 4
	sc.K = 3 + r.Intn(sc.Groups-2)        // 3..Groups
	sc.OSDs = sc.Groups * (1 + r.Intn(3)) // 1–3 devices per group

	sc.Files = 4 + r.Intn(21)     // 4..24
	sc.Writes = 30 + r.Intn(371)  // 30..400
	sc.Reads = 10 + r.Intn(191)   // 10..200
	sc.Users = 1 + r.Intn(6)      // 1..6
	sc.Records = 40 + r.Intn(561) // 40..600

	policies := []string{"baseline", "hdf", "cdf", "cmt"}
	sc.Policy = policies[r.Intn(len(policies))]
	if sc.Policy != "baseline" {
		sc.Migration = "midpoint"
		sc.Lambda = 0.05 + r.Float64()*0.25
	}

	sc.Plan = genPlan(r, sc)
	return sc
}

// genPlan draws 0–3 device faults whose targets and times fit the
// scenario: fail (sometimes paired with a later repair), transient
// slowdowns, and — when a migration round will run — a mid-round
// kill.
func genPlan(r *rand.Rand, sc Scenario) Plan {
	var p Plan
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		osd := r.Intn(sc.OSDs)
		at := sim.Time(r.Int63n(int64(30 * sim.Millisecond)))
		switch roll := r.Float64(); {
		case roll < 0.40:
			p.Faults = append(p.Faults, Fault{Kind: FaultFail, OSD: osd, At: at})
		case roll < 0.65:
			d := sim.Time(1 + r.Int63n(int64(20*sim.Millisecond))) // 1ns..20ms
			p.Faults = append(p.Faults,
				Fault{Kind: FaultFail, OSD: osd, At: at},
				Fault{Kind: FaultRepair, OSD: osd, At: at + d})
		case roll < 0.85 || sc.Migration == "" || sc.Migration == "never":
			d := sim.Time(1 + r.Int63n(int64(20*sim.Millisecond)))
			p.Faults = append(p.Faults, Fault{
				Kind: FaultSlow, OSD: osd, At: at, Duration: d,
				Factor: 1.5 + r.Float64()*6.5,
			})
		default:
			p.Faults = append(p.Faults, Fault{
				Kind: FaultMigrationFail, OSD: osd,
				After: sim.Time(r.Int63n(int64(2 * sim.Millisecond))),
			})
		}
	}
	return p
}
