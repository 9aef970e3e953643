package cluster

import (
	"testing"

	"edm/internal/migration"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

func TestSingleFailureDegradedService(t *testing.T) {
	tr := tinyTrace(t, 30)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailOSD(3, sim.Millisecond) // fail early: most of the run is degraded
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every operation still completes: one lost column is survivable.
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Records))
	}
	if res.DegradedOps == 0 {
		t.Fatal("no sub-operation was served degraded despite the failure")
	}
	if res.LostOps != 0 {
		t.Fatalf("single failure lost %d operations", res.LostOps)
	}
	// The failed device serves nothing after the failure instant.
	if !cl.Failed(3) {
		t.Fatal("device not marked failed")
	}
}

func TestSingleFailureCostsLatency(t *testing.T) {
	run := func(fail bool) *Result {
		tr := tinyTrace(t, 31)
		cl, err := New(testConfig(16), tr)
		if err != nil {
			t.Fatal(err)
		}
		if fail {
			cl.FailOSD(2, sim.Millisecond)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(false)
	degraded := run(true)
	// Reconstruction reads amplify load: the degraded run must be
	// slower overall.
	if degraded.Makespan <= healthy.Makespan {
		t.Fatalf("degraded run not slower: %v vs %v", degraded.Makespan, healthy.Makespan)
	}
}

func TestSecondFailureSameGroupSurvives(t *testing.T) {
	// §III.D: OSDs 3 and 7 share group 3 (m=4); no stripe has two
	// objects in one group, so both failing loses no data.
	tr := tinyTrace(t, 32)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailOSD(3, sim.Millisecond)
	cl.FailOSD(7, 2*sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LostOps != 0 {
		t.Fatalf("same-group double failure lost %d operations — §III.D violated", res.LostOps)
	}
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Records))
	}
}

func TestSecondFailureDifferentGroupsLosesData(t *testing.T) {
	// OSDs 3 and 4 are in different groups: some stripes lose two
	// columns and their operations must be counted as lost.
	tr := tinyTrace(t, 33)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailOSD(3, sim.Millisecond)
	cl.FailOSD(4, 2*sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LostOps == 0 {
		t.Fatal("cross-group double failure lost nothing — reconstruction accounting broken")
	}
	// The run still terminates (lost ops complete degraded-best-effort).
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Records))
	}
}

func TestMigrationAvoidsFailedDevices(t *testing.T) {
	tr := tinyTrace(t, 34)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
	cl.FailOSD(0, sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cl.moves {
		if m.Src == 0 || m.Dst == 0 {
			t.Fatalf("migration touched the failed device: %+v", m)
		}
	}
	_ = res
}

// failureCounter counts DeviceFailure events through the recorder
// chain — the observable half of FailOSD's idempotence contract.
type failureCounter struct {
	telemetry.Nop
	failures int
}

func (f *failureCounter) DeviceFailure(telemetry.DeviceFailure) { f.failures++ }

// TestFailOSDEdgeSemantics pins FailOSD's documented edge cases (see
// the method comment): idempotent refail, same-group double failure,
// and failures scheduled at or past the end of the workload.
func TestFailOSDEdgeSemantics(t *testing.T) {
	cases := []struct {
		name  string
		fail  func(cl *Cluster) // schedule the case's failures
		seed  uint64
		osds  int
		check func(t *testing.T, res *Result, rec *failureCounter, ops int)
	}{
		{
			name: "refail is a no-op",
			seed: 40,
			fail: func(cl *Cluster) {
				cl.FailOSD(3, sim.Millisecond)
				cl.FailOSD(3, 2*sim.Millisecond) // already failed: must not re-fire
			},
			check: func(t *testing.T, res *Result, rec *failureCounter, ops int) {
				if rec.failures != 1 {
					t.Errorf("DeviceFailure events = %d, want 1 (refail must not re-fire)", rec.failures)
				}
				if res.LostOps != 0 || res.Completed != ops {
					t.Errorf("refail changed accounting: lost %d, completed %d/%d", res.LostOps, res.Completed, ops)
				}
			},
		},
		{
			name: "same-group second failure is survivable",
			seed: 41,
			fail: func(cl *Cluster) {
				// OSDs 3 and 7 share group 3 (m=4, 16 OSDs): §III.D says
				// no stripe has two objects in one group.
				cl.FailOSD(3, sim.Millisecond)
				cl.FailOSD(7, 2*sim.Millisecond)
			},
			check: func(t *testing.T, res *Result, rec *failureCounter, ops int) {
				if rec.failures != 2 {
					t.Errorf("DeviceFailure events = %d, want 2", rec.failures)
				}
				if res.LostOps != 0 {
					t.Errorf("same-group double failure lost %d operations", res.LostOps)
				}
				if res.DegradedOps == 0 {
					t.Error("no degraded service despite two failed devices")
				}
				if res.Completed != ops {
					t.Errorf("completed %d of %d", res.Completed, ops)
				}
			},
		},
		{
			name: "failure far past the last operation",
			seed: 42,
			fail: func(cl *Cluster) {
				cl.FailOSD(5, sim.Hour) // long after any tiny trace finishes
			},
			check: func(t *testing.T, res *Result, rec *failureCounter, ops int) {
				if rec.failures != 1 {
					t.Errorf("DeviceFailure events = %d, want 1 (late failure must still fire)", rec.failures)
				}
				if res.DegradedOps != 0 || res.LostOps != 0 {
					t.Errorf("post-run failure degraded %d / lost %d operations", res.DegradedOps, res.LostOps)
				}
				if res.Completed != ops {
					t.Errorf("completed %d of %d", res.Completed, ops)
				}
				if res.Makespan < sim.Hour {
					t.Errorf("makespan %v does not cover the drained failure event", res.Makespan)
				}
			},
		},
		{
			name: "failure at time zero degrades the whole run",
			seed: 43,
			fail: func(cl *Cluster) {
				cl.FailOSD(0, 0)
			},
			check: func(t *testing.T, res *Result, rec *failureCounter, ops int) {
				if rec.failures != 1 {
					t.Errorf("DeviceFailure events = %d, want 1", rec.failures)
				}
				if res.DegradedOps == 0 {
					t.Error("failure at t=0 produced no degraded service")
				}
				if res.LostOps != 0 || res.Completed != ops {
					t.Errorf("single failure lost %d, completed %d/%d", res.LostOps, res.Completed, ops)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tinyTrace(t, tc.seed)
			rec := &failureCounter{}
			cl, err := New(testConfig(16), tr)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetRecorder(rec)
			tc.fail(cl)
			res, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res, rec, len(tr.Records))
			// Every case leaves at least one device failed for good.
			any := false
			for i := 0; i < 16; i++ {
				any = any || cl.Failed(i)
			}
			if !any {
				t.Error("no device marked failed after the run")
			}
		})
	}
}

func TestFailOSDRangePanics(t *testing.T) {
	tr := tinyTrace(t, 35)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range FailOSD must panic")
		}
	}()
	cl.FailOSD(99, 0)
}
