package check

import (
	"bytes"
	"testing"

	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// TestReplayDeterminismWithChecking runs the Fig. 5 home02/16-OSD/HDF
// cell twice with full checking enabled and asserts the two runs are
// bit-for-bit identical: same NDJSON event log, same check report. The
// checker decorating the recorder chain must not perturb the simulation,
// and the report itself must be a pure function of (spec, seed).
func TestReplayDeterminismWithChecking(t *testing.T) {
	scale, osds := 20, 16
	if testing.Short() {
		scale, osds = 40, 8
	}
	run := func() ([]byte, string) {
		p, ok := trace.LookupProfile("home02")
		if !ok {
			t.Fatal("home02 missing")
		}
		tr, err := trace.Generate(p.Scaled(scale), 42)
		if err != nil {
			t.Fatal(err)
		}
		tracer := telemetry.NewTracer(telemetry.ClassAll)
		ck := Wrap(tracer)
		cfg := cluster.Config{
			OSDs: osds, Groups: 4, ObjectsPerFile: 4, Seed: 42,
			Migration: cluster.MigrateMidpoint,
		}
		cl, err := cluster.New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetRecorder(ck)
		Bind(ck, cl)
		cl.SetPlanner(migration.NewHDF(migration.Config{Lambda: 0.1}))
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		rep := Audit(cl, ck)
		if err := rep.Err(); err != nil {
			t.Fatalf("checked run not clean: %v\n%s", err, rep)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteNDJSON(&buf, tracer.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep.String()
	}
	ndjson1, report1 := run()
	ndjson2, report2 := run()
	if len(ndjson1) == 0 {
		t.Fatal("no events traced")
	}
	if !bytes.Equal(ndjson1, ndjson2) {
		t.Fatalf("NDJSON diverged between identical runs (%d vs %d bytes)", len(ndjson1), len(ndjson2))
	}
	if report1 != report2 {
		t.Fatalf("check reports diverged:\n--- first\n%s\n--- second\n%s", report1, report2)
	}
}
