package chaos

import (
	"context"
	"testing"

	"edm"
	"edm/internal/check"
	"edm/internal/cluster"
	"edm/internal/sim"
)

// runScenarioEnv runs a scenario exactly as RunScenario does (planted
// bug included) and returns the live pieces with the verdict.
func runScenarioEnv(t *testing.T, sc Scenario) (*scenarioEnv, *cluster.Result, Verdict) {
	t.Helper()
	env, err := sc.build(0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := env.cl.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return env, res, env.verdict(res)
}

// baseScenario is a small deterministic workload the injector tests
// share; faults are layered on per test.
func baseScenario() Scenario {
	return Scenario{
		Seed: 42, OSDs: 8, Groups: 4, K: 4,
		Files: 12, Writes: 200, Reads: 80, Users: 4, Records: 400,
	}
}

// runWith wires a scenario + plan exactly as RunScenario does, but
// returns the live pieces so tests can assert on cluster state and
// the injector's observed timeline.
func runWith(t *testing.T, sc Scenario, p Plan) (*cluster.Cluster, *Injector, *cluster.Result, *check.Report) {
	t.Helper()
	sc.Plan = p
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	tr, err := sc.BuildTrace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	pol := edm.PolicyBaseline
	if sc.Policy != "" {
		if pol, err = edm.ParsePolicy(sc.Policy); err != nil {
			t.Fatal(err)
		}
	}
	mode := cluster.MigrateNever
	if pol != edm.PolicyBaseline {
		mode = cluster.MigrateMidpoint
	}
	checker := check.Wrap(nil)
	inj := NewInjector(checker, p)
	cl, err := edm.NewCluster(edm.Spec{
		Trace: tr, OSDs: sc.OSDs, Groups: sc.Groups, ObjectsPerFile: sc.K,
		Policy: pol, MigrationMode: &mode, Seed: sc.Seed,
		Cluster: cluster.Config{WarmupDisabled: true},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	cl.SetRecorder(inj)
	check.Bind(checker, cl)
	inj.Arm(cl, p)
	res, err := cl.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cl, inj, res, check.Audit(cl, checker)
}

func TestInjectorFailThenRepair(t *testing.T) {
	sc := baseScenario()
	p := Plan{Faults: []Fault{
		{Kind: FaultFail, OSD: 2, At: sim.Millisecond},
		{Kind: FaultRepair, OSD: 2, At: 6 * sim.Millisecond},
	}}
	cl, inj, res, rep := runWith(t, sc, p)
	if cl.Failed(2) {
		t.Error("osd 2 still failed after scheduled repair")
	}
	if inj.Windows() != 1 {
		t.Errorf("observed %d failure windows, want 1", inj.Windows())
	}
	if res.DegradedOps == 0 {
		t.Error("no degraded ops during a 5ms failure window; fault did not bite")
	}
	if res.LostOps != 0 {
		t.Errorf("single failure lost %d ops; §III.D says none", res.LostOps)
	}
	if !rep.OK() {
		t.Errorf("checker violations under fail+repair:\n%s", rep)
	}
	if v := inj.Violations(res); len(v) != 0 {
		t.Errorf("chaos violations: %v", v)
	}
}

func TestInjectorSlowdownStretchesService(t *testing.T) {
	sc := baseScenario()
	_, _, base, _ := runWith(t, sc, Plan{})
	p := Plan{Faults: []Fault{
		{Kind: FaultSlow, OSD: 0, At: 0, Duration: 50 * sim.Millisecond, Factor: 8},
		{Kind: FaultSlow, OSD: 1, At: 0, Duration: 50 * sim.Millisecond, Factor: 8},
	}}
	_, inj, slowed, rep := runWith(t, sc, p)
	if slowed.Makespan <= base.Makespan {
		t.Errorf("slowdown did not stretch the run: %v <= %v", slowed.Makespan, base.Makespan)
	}
	if slowed.Completed != base.Completed {
		t.Errorf("slowdown changed completion count: %d vs %d", slowed.Completed, base.Completed)
	}
	if inj.Windows() != 0 {
		t.Errorf("slowdowns opened %d failure windows", inj.Windows())
	}
	if !rep.OK() {
		t.Errorf("checker violations under slowdown:\n%s", rep)
	}
}

func TestInjectorMigrationWindowKill(t *testing.T) {
	sc := baseScenario()
	sc.Policy = "cmt" // CMT moves the most objects; a round reliably fires
	p := Plan{Faults: []Fault{
		{Kind: FaultMigrationFail, OSD: 5, After: 100 * sim.Microsecond, Nth: 0},
	}}
	cl, inj, res, rep := runWith(t, sc, p)
	if res.Migrations == 0 {
		t.Fatal("no migration round fired; scenario cannot exercise the mid-round kill")
	}
	if !cl.Failed(5) {
		t.Error("osd 5 not failed after the migration-armed fault")
	}
	if inj.Windows() != 1 {
		t.Errorf("observed %d failure windows, want 1", inj.Windows())
	}
	if !rep.OK() {
		t.Errorf("checker violations after mid-round kill:\n%s", rep)
	}
	if v := inj.Violations(res); len(v) != 0 {
		t.Errorf("chaos violations: %v", v)
	}
}

func TestInjectorCrossGroupDoubleFailureLoses(t *testing.T) {
	sc := baseScenario()
	// OSDs 0 and 1 land in distinct groups under the default layout.
	cl, inj, res, _ := runWith(t, sc, Plan{Faults: []Fault{
		{Kind: FaultFail, OSD: 0, At: 0},
		{Kind: FaultFail, OSD: 1, At: 0},
	}})
	if g0, g1 := cl.Layout().GroupOf(0), cl.Layout().GroupOf(1); g0 == g1 {
		t.Fatalf("test premise broken: osds 0 and 1 share group %d", g0)
	}
	if res.LostOps == 0 {
		t.Skip("workload never hit a doubly-failed stripe; nothing to assert")
	}
	// Losses are legitimate here: the invariant must NOT fire.
	if v := inj.Violations(res); len(v) != 0 {
		t.Errorf("cross-group double failure flagged as violation: %v", v)
	}
}

// TestCMTStripeOnFailedDeviceLosesLegally is the stress-smoke failure
// of scenario 24 (seed 0xd5336963eefba222), as the shrinker left it:
// CMT moves object 5 (file 1, column 2) from OSD 0 onto OSD 2, which
// already holds another column of file 1, and the migration-armed
// fault then fails OSD 2. Operations on file 1 are lost. That is the
// model working — CMT moves across groups by design — so the verdict
// must be clean.
func TestCMTStripeOnFailedDeviceLosesLegally(t *testing.T) {
	sc := Scenario{
		Seed: 0xd5336963eefba222, OSDs: 3, Groups: 3, K: 3,
		Files: 5, Writes: 355, Reads: 180, Users: 1, Records: 60,
		Policy: "cmt", Migration: "midpoint", Lambda: 0.20842877543111366,
		Plan: Plan{Faults: []Fault{{Kind: FaultMigrationFail, OSD: 2}}},
	}
	env, res, v := runScenarioEnv(t, sc)
	if at, ok := env.inj.moved[5]; !ok || at != 2 {
		t.Fatalf("premise: object 5 at osd %d (moved=%v), want osd 2", at, ok)
	}
	if res.LostOps == 0 || !env.inj.stripeLost {
		t.Fatalf("premise: lost %d ops, stripe loss seen %v; want a loss on a doubly failed stripe",
			res.LostOps, env.inj.stripeLost)
	}
	if !v.OK {
		t.Errorf("legal CMT loss flagged: %v", v.Violations)
	}
}

// TestPlantedBugCaughtUnderCMT: with cross-group moves in play the
// oracle still catches a miscount. CMT migrates, OSD 7 fails at t=0 so
// it never takes part in a move, and no stripe ever has two columns on
// it; the planted bug then reports lost operations that RAID-5 served,
// and chaos.lost must fire.
func TestPlantedBugCaughtUnderCMT(t *testing.T) {
	sc := baseScenario()
	sc.Policy = "cmt"
	sc.Migration = "midpoint"
	sc.PlantBug = PlantBugMiscountLostOps
	sc.Plan = Plan{Faults: []Fault{{Kind: FaultFail, OSD: 7, At: 0}}}
	env, res, v := runScenarioEnv(t, sc)
	if res.MovedObjects == 0 {
		t.Fatal("premise: CMT moved nothing")
	}
	k := int64(sc.K)
	perFile := map[int64]int{}
	for _, id := range env.cl.OSD(7).Store.IDs() {
		if perFile[int64(id)/k]++; perFile[int64(id)/k] > 1 {
			t.Fatalf("premise: osd 7 holds two columns of file %d", int64(id)/k)
		}
	}
	if res.LostOps == 0 || env.inj.stripeLost {
		t.Fatalf("premise: lost %d ops, stripe loss seen %v; want miscounted losses only",
			res.LostOps, env.inj.stripeLost)
	}
	if !v.Rules()["chaos.lost"] {
		t.Errorf("planted bug under CMT not caught: %v", v.Violations)
	}
}
