package edm

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/trace"
)

func quickSpec(p Policy) Spec {
	return Spec{
		Workload: "home02",
		OSDs:     16,
		Policy:   p,
		Scale:    400,
		Seed:     3,
		Cluster:  cluster.Config{WarmupDisabled: true},
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyBaseline: "baseline",
		PolicyCMT:      "CMT",
		PolicyHDF:      "EDM-HDF",
		PolicyCDF:      "EDM-CDF",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%v != %s", p, s)
		}
	}
	if len(AllPolicies()) != 4 {
		t.Fatal("AllPolicies should list the paper's four systems")
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range AllPolicies() {
		res, err := Run(context.Background(), quickSpec(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Policy != p.String() {
			t.Fatalf("policy label %q for %v", res.Policy, p)
		}
		if res.Completed == 0 || res.ThroughputOps <= 0 {
			t.Fatalf("%v: degenerate result %+v", p, res)
		}
		if p == PolicyBaseline && res.MovedObjects != 0 {
			t.Fatalf("baseline moved objects")
		}
	}
}

func TestBuildTraceNamedWorkloads(t *testing.T) {
	for _, name := range append(trace.ProfileNames(), "random") {
		tr, err := BuildTrace(Spec{Workload: name, Scale: 400, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
	}
}

func TestBuildTraceUnknownWorkload(t *testing.T) {
	if _, err := BuildTrace(Spec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestBuildTraceExplicitTraceWins(t *testing.T) {
	custom := &trace.Trace{Name: "custom"}
	tr, err := BuildTrace(Spec{Workload: "home02", Trace: custom})
	if err != nil {
		t.Fatal(err)
	}
	if tr != custom {
		t.Fatal("explicit trace should be returned verbatim")
	}
}

func TestMigrationModeDefaults(t *testing.T) {
	if m := (Spec{Policy: PolicyBaseline}).migrationMode(); m != cluster.MigrateNever {
		t.Fatalf("baseline default mode %v", m)
	}
	if m := (Spec{Policy: PolicyHDF}).migrationMode(); m != cluster.MigrateMidpoint {
		t.Fatalf("HDF default mode %v", m)
	}
	never := cluster.MigrateNever
	s := Spec{Policy: PolicyHDF, MigrationMode: &never}
	if m := s.migrationMode(); m != cluster.MigrateNever {
		t.Fatalf("explicit never overridden: %v", m)
	}
	periodic := cluster.MigratePeriodic
	s = Spec{Policy: PolicyBaseline, MigrationMode: &periodic}
	if m := s.migrationMode(); m != cluster.MigratePeriodic {
		t.Fatalf("explicit periodic overridden: %v", m)
	}
}

func TestPlannerConstruction(t *testing.T) {
	cases := map[Policy]string{
		PolicyCMT: "CMT",
		PolicyHDF: "EDM-HDF",
		PolicyCDF: "EDM-CDF",
	}
	for p, name := range cases {
		pl := (Spec{Policy: p}).planner()
		if pl == nil || pl.Name() != name {
			t.Fatalf("planner for %v: %v", p, pl)
		}
	}
	if (Spec{Policy: PolicyBaseline}).planner() != nil {
		t.Fatal("baseline should have no planner")
	}
}

func TestLambdaPropagates(t *testing.T) {
	pl := (Spec{Policy: PolicyHDF, Lambda: 0.42}).planner()
	hdf, ok := pl.(*migration.HDF)
	if !ok {
		t.Fatalf("planner type %T", pl)
	}
	if hdf.Cfg.Lambda != 0.42 {
		t.Fatalf("lambda %v", hdf.Cfg.Lambda)
	}
}

func TestMigrationConfigOverride(t *testing.T) {
	mcfg := migration.DefaultConfig()
	mcfg.ColdFraction = 0.9
	pl := (Spec{Policy: PolicyCDF, MigrationConfig: &mcfg}).planner()
	cdf, ok := pl.(*migration.CDF)
	if !ok {
		t.Fatalf("planner type %T", pl)
	}
	if cdf.Cfg.ColdFraction != 0.9 {
		t.Fatalf("cold fraction %v", cdf.Cfg.ColdFraction)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(context.Background(), quickSpec(PolicyHDF))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), quickSpec(PolicyHDF))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.AggregateErases != b.AggregateErases || a.MovedObjects != b.MovedObjects {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSpecClusterOverridesWin(t *testing.T) {
	spec := quickSpec(PolicyBaseline)
	spec.Cluster.OSDs = 8
	spec.OSDs = 16
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OSDs != 8 {
		t.Fatalf("cluster override ignored: %d OSDs", res.OSDs)
	}
}

// A Scratch donated through Spec.Cluster comes back holding the run's
// grown buffers, and recycling it into the next run leaves the result
// unchanged.
func TestRunRefillsDonatedScratch(t *testing.T) {
	ctx := context.Background()
	want, err := Run(ctx, quickSpec(PolicyHDF))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	scr := &cluster.Scratch{}
	for i := 0; i < 2; i++ {
		spec := quickSpec(PolicyHDF)
		spec.Cluster.Scratch = scr
		res, err := Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(*scr, cluster.Scratch{}) {
			t.Fatalf("run %d: donated scratch came back empty", i)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Fatalf("run %d on a donated scratch: result differs from a run without one", i)
		}
	}
}

// Spec.Cluster.Migration would be overwritten by the policy's mode, so
// a non-zero value is refused instead of silently ignored.
func TestClusterMigrationRejected(t *testing.T) {
	spec := quickSpec(PolicyHDF)
	spec.Cluster.Migration = cluster.MigratePeriodic
	if _, err := Run(context.Background(), spec); !errors.Is(err, cluster.ErrInvalidConfig) {
		t.Fatalf("Run with Spec.Cluster.Migration set: err = %v, want cluster.ErrInvalidConfig", err)
	}
	if _, err := NewCluster(spec); !errors.Is(err, cluster.ErrInvalidConfig) {
		t.Fatalf("NewCluster with Spec.Cluster.Migration set: err = %v, want cluster.ErrInvalidConfig", err)
	}
}
