package cluster

import (
	"bytes"
	"testing"

	"edm/internal/migration"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

// tracedRun replays the trace with a Tracer and Registry attached and
// returns the serialized NDJSON event log and CSV snapshot series.
func tracedRun(t *testing.T, seed uint64, mask telemetry.Class) (ndjson, csv []byte, tr *telemetry.Tracer) {
	t.Helper()
	workload := tinyTrace(t, seed)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, workload)
	if err != nil {
		t.Fatal(err)
	}
	tr = telemetry.NewTracer(mask)
	reg := telemetry.NewRegistry()
	cl.SetRecorder(tr)
	cl.SetMetrics(reg, 0)
	cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}

	var events, snaps bytes.Buffer
	if err := telemetry.WriteNDJSON(&events, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSnapshotsCSV(&snaps, reg); err != nil {
		t.Fatal(err)
	}
	return events.Bytes(), snaps.Bytes(), tr
}

// TestReplayProducesIdenticalNDJSON is the determinism acceptance
// criterion: the event stream is a pure function of (spec, seed), so two
// runs of the same configuration serialize to byte-identical NDJSON and
// CSV files.
func TestReplayProducesIdenticalNDJSON(t *testing.T) {
	nd1, csv1, _ := tracedRun(t, 3, telemetry.ClassAll)
	nd2, csv2, _ := tracedRun(t, 3, telemetry.ClassAll)
	if !bytes.Equal(nd1, nd2) {
		t.Fatal("two identical (spec, seed) runs produced different NDJSON event logs")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("two identical (spec, seed) runs produced different CSV snapshot series")
	}
	if len(nd1) == 0 {
		t.Fatal("instrumented run emitted no events")
	}
}

// TestTracedRunEmitsAllLifecycles checks that one migrating HDF replay
// touches every instrumented subsystem: request lifecycles, queue
// samples, flash programs and erases, the trigger/plan/move/commit
// migration sequence, and the §V.D park/resume pairs.
func TestTracedRunEmitsAllLifecycles(t *testing.T) {
	_, csv, tr := tracedRun(t, 2, telemetry.ClassAll)

	for _, kind := range []string{
		"request.start", "request.complete", "queue.sample",
		"flash.write", "flash.erase",
		"migration.trigger", "migration.plan",
		"migration.move.start", "migration.move.commit", "migration.round.end",
		"wait.park", "wait.resume",
	} {
		if tr.CountKind(kind) == 0 {
			t.Errorf("no %s events in a midpoint-HDF run", kind)
		}
	}
	starts := tr.CountKind("request.start")
	completes := tr.CountKind("request.complete")
	if starts != completes {
		t.Errorf("request.start %d != request.complete %d", starts, completes)
	}
	moveStarts := tr.CountKind("migration.move.start")
	commits := tr.CountKind("migration.move.commit")
	if commits == 0 || commits > moveStarts {
		t.Errorf("move starts %d vs commits %d", moveStarts, commits)
	}
	// Parked requests eventually complete, flagged as blocked.
	var blocked int
	for _, ev := range tr.Events() {
		if rc, ok := ev.(telemetry.RequestComplete); ok && rc.Blocked {
			blocked++
			if rc.T < rc.Issued {
				t.Errorf("completion before issue: %+v", rc)
			}
		}
	}
	if parks := tr.CountKind("wait.park"); parks > 0 && blocked == 0 {
		t.Error("events show parks but no blocked completion")
	}
	if len(bytes.Split(bytes.TrimSpace(csv), []byte("\n"))) < 2 {
		t.Error("snapshot CSV has no sample rows")
	}
}

// TestEventsOrderedByTime checks the log is non-decreasing in virtual
// time — the property that makes NDJSON logs streamable into analysis
// tools without a sort step.
func TestEventsOrderedByTime(t *testing.T) {
	_, _, tr := tracedRun(t, 2, telemetry.ClassAll)
	var last sim.Time
	for i, ev := range tr.Events() {
		if ev.Time() < last {
			t.Fatalf("event %d (%s) at %v precedes previous event at %v",
				i, ev.Kind(), ev.Time(), last)
		}
		last = ev.Time()
	}
}

// TestMaskSuppressesClasses runs with only the migration class enabled
// and checks the (huge) request/queue classes stay out of the log.
func TestMaskSuppressesClasses(t *testing.T) {
	_, _, tr := tracedRun(t, 2, telemetry.ClassMigration)
	if tr.Len() == 0 {
		t.Fatal("migration-only mask recorded nothing")
	}
	for _, ev := range tr.Events() {
		if ev.EventClass() != telemetry.ClassMigration {
			t.Fatalf("mask leak: %s (class %v)", ev.Kind(), ev.EventClass())
		}
	}
}

// TestFailureRebuildTelemetry injects a failure plus rebuild and checks
// the failure/rebuild lifecycle appears with consistent totals.
func TestFailureRebuildTelemetry(t *testing.T) {
	workload := tinyTrace(t, 4)
	cl, err := New(testConfig(16), workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(telemetry.ClassFailure)
	cl.SetRecorder(tr)
	cl.FailOSD(3, sim.Second)
	cl.Rebuild(3, 2*sim.Second)
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}

	if got := tr.CountKind("failure.device"); got != 1 {
		t.Fatalf("failure.device count = %d, want 1", got)
	}
	if got := tr.CountKind("rebuild.start"); got != 1 {
		t.Fatalf("rebuild.start count = %d, want 1", got)
	}
	if got := tr.CountKind("rebuild.end"); got != 1 {
		t.Fatalf("rebuild.end count = %d, want 1", got)
	}
	objects := tr.CountKind("rebuild.object")
	for _, ev := range tr.Events() {
		if end, ok := ev.(telemetry.RebuildEnd); ok {
			if end.Rebuilt != objects {
				t.Errorf("RebuildEnd.Rebuilt = %d, but %d rebuild.object events", end.Rebuilt, objects)
			}
		}
	}
}
