package check

import (
	"strings"
	"testing"

	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// feedHealthy drives a minimal but complete event stream through the
// checker: two requests, a queue sample, flash traffic, one migration
// round with an HDF park/resume, and a failure/rebuild pair.
func feedHealthy(ck *Checker) {
	ck.SetPagesPerBlock(32)
	ck.RequestStart(telemetry.RequestStart{T: 0, Op: "write", Size: 4096})
	ck.QueueSample(telemetry.QueueSample{T: 0, OSD: 1, Backlog: 5, Wait: 2})
	ck.FlashWrite(telemetry.FlashWrite{T: 0, OSD: 1, Pages: 1})
	ck.FlashErase(telemetry.FlashErase{T: 1, OSD: 1, ValidRatio: 0.25, Moved: 8})
	ck.RequestComplete(telemetry.RequestComplete{T: 10, Issued: 0, Op: "write"})
	ck.MigrationPlan(telemetry.MigrationPlan{T: 11, Round: 1, Moves: 1})
	ck.WaitPark(telemetry.WaitPark{T: 11, Obj: 7})
	ck.ObjectMoveStart(telemetry.ObjectMoveStart{T: 11, Obj: 7, Src: 0, Dst: 1})
	ck.ObjectMoveCommit(telemetry.ObjectMoveCommit{T: 12, Obj: 7, Src: 0, Dst: 1})
	ck.WaitResume(telemetry.WaitResume{T: 12, Obj: 7, Resumed: 1})
	ck.RequestStart(telemetry.RequestStart{T: 12, Op: "read", Size: 512})
	ck.RequestComplete(telemetry.RequestComplete{T: 13, Issued: 11, Op: "read"})
	ck.MigrationRoundEnd(telemetry.MigrationRoundEnd{T: 13, Round: 1, Moved: 1})
	ck.DeviceFailure(telemetry.DeviceFailure{T: 14, OSD: 3})
	ck.RebuildStart(telemetry.RebuildStart{T: 14, OSD: 3, Objects: 1})
	ck.RebuildObject(telemetry.RebuildObject{T: 15, Obj: 9, From: 3, To: 1})
	ck.RebuildEnd(telemetry.RebuildEnd{T: 15, OSD: 3, Rebuilt: 1})
}

// TestDegradedRunAuditsClean is the degraded-mode regression: a full
// seeded run that fails one device mid-run and rebuilds it must pass
// every event-stream rule AND the end-of-run state audit — degraded
// service, reconstruction I/O and rebuild remapping are all legal
// behaviour, not violations.
func TestDegradedRunAuditsClean(t *testing.T) {
	p, _ := trace.LookupProfile("home02")
	tr, err := trace.Generate(p.Scaled(400), 9)
	if err != nil {
		t.Fatal(err)
	}
	ck := Wrap(nil)
	cfg := cluster.Config{
		OSDs: 16, Groups: 4, ObjectsPerFile: 4, Seed: 9,
		WarmupDisabled: true,
		Migration:      cluster.MigrateMidpoint,
	}
	cl, err := cluster.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRecorder(ck)
	Bind(ck, cl)
	cl.SetPlanner(migration.NewHDF(migration.Config{Lambda: 0.1}))
	cl.FailOSD(6, 2*sim.Millisecond)
	cl.Rebuild(6, 10*sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedOps == 0 {
		t.Fatal("run was never degraded; the regression exercises nothing")
	}
	if res.LostOps != 0 {
		t.Fatalf("single failure lost %d operations", res.LostOps)
	}
	if res.RebuiltObjects == 0 {
		t.Fatal("rebuild reconstructed nothing")
	}
	rep := Audit(cl, ck)
	if err := rep.Err(); err != nil {
		t.Fatalf("degraded run not clean: %v\n%s", err, rep)
	}
}

func TestCheckerAcceptsHealthyStream(t *testing.T) {
	ck := Wrap(nil)
	feedHealthy(ck)
	rep := ck.Finish()
	if !rep.OK() {
		t.Fatalf("healthy stream rejected:\n%s", rep)
	}
	if rep.Events != 17 {
		t.Fatalf("events = %d, want 17", rep.Events)
	}
	if rep.Err() != nil || !strings.Contains(rep.String(), "all invariants hold") {
		t.Fatalf("clean report misrendered: %v / %s", rep.Err(), rep)
	}
	if got := ck.Erases(1); got != 1 {
		t.Fatalf("erase events on osd 1 = %d", got)
	}
}

// TestCheckerFlagsInjectedFaults feeds the checker a healthy stream plus
// one law-breaking event (or omission) per case and asserts the exact
// rule fires — the harness's it-can-actually-fail proof at the event
// level.
func TestCheckerFlagsInjectedFaults(t *testing.T) {
	// The minimum-service check deliberately disarms once a device
	// failure has been observed, so its case skips the healthy prologue
	// (which ends in a failure/rebuild episode).
	fresh := map[string]bool{"impossibly fast response": true}
	cases := []struct {
		name   string
		inject func(*Checker)
		rule   string
	}{
		{"time reversal", func(ck *Checker) {
			ck.QueueSample(telemetry.QueueSample{T: 3})
		}, "time.monotonic"},
		{"completion without start", func(ck *Checker) {
			ck.RequestComplete(telemetry.RequestComplete{T: 20, Issued: 20})
		}, "request.balance"},
		{"completion before issue", func(ck *Checker) {
			ck.RequestStart(telemetry.RequestStart{T: 20})
			ck.RequestComplete(telemetry.RequestComplete{T: 21, Issued: 30})
		}, "request.causal"},
		{"impossibly fast response", func(ck *Checker) {
			ck.MinResponse = 5
			ck.RequestStart(telemetry.RequestStart{T: 20})
			ck.RequestComplete(telemetry.RequestComplete{T: 21, Issued: 20})
		}, "request.service"},
		{"negative queue wait", func(ck *Checker) {
			ck.QueueSample(telemetry.QueueSample{T: 20, Wait: -1})
		}, "queue.wait"},
		{"backlog below wait", func(ck *Checker) {
			ck.QueueSample(telemetry.QueueSample{T: 20, Backlog: 1, Wait: 2})
		}, "queue.backlog"},
		{"zero-page program", func(ck *Checker) {
			ck.FlashWrite(telemetry.FlashWrite{T: 20})
		}, "flash.write"},
		{"valid ratio out of range", func(ck *Checker) {
			ck.FlashErase(telemetry.FlashErase{T: 20, ValidRatio: 1.0, Moved: 32})
		}, "flash.erase.ratio"},
		{"relocation mismatch", func(ck *Checker) {
			ck.FlashErase(telemetry.FlashErase{T: 20, ValidRatio: 0.5, Moved: 3})
		}, "flash.erase.moved"},
		{"round out of sequence", func(ck *Checker) {
			ck.MigrationPlan(telemetry.MigrationPlan{T: 20, Round: 5, Moves: 1})
		}, "migration.rounds"},
		{"round count mismatch", func(ck *Checker) {
			ck.MigrationPlan(telemetry.MigrationPlan{T: 20, Round: 2, Moves: 3})
			ck.MigrationRoundEnd(telemetry.MigrationRoundEnd{T: 21, Round: 2, Moved: 2})
		}, "migration.round.count"},
		{"duplicate move start", func(ck *Checker) {
			ck.ObjectMoveStart(telemetry.ObjectMoveStart{T: 20, Obj: 42, Src: 0, Dst: 1})
			ck.ObjectMoveStart(telemetry.ObjectMoveStart{T: 21, Obj: 42, Src: 0, Dst: 2})
		}, "migration.move.dup"},
		{"self move", func(ck *Checker) {
			ck.ObjectMoveStart(telemetry.ObjectMoveStart{T: 20, Obj: 42, Src: 1, Dst: 1})
		}, "migration.move.self"},
		{"commit without start", func(ck *Checker) {
			ck.ObjectMoveCommit(telemetry.ObjectMoveCommit{T: 20, Obj: 42})
		}, "migration.move.unmatched"},
		{"move never committed", func(ck *Checker) {
			ck.ObjectMoveStart(telemetry.ObjectMoveStart{T: 20, Obj: 42, Src: 0, Dst: 1})
		}, "migration.move.open"},
		{"resume count mismatch", func(ck *Checker) {
			ck.WaitPark(telemetry.WaitPark{T: 20, Obj: 42})
			ck.WaitPark(telemetry.WaitPark{T: 20, Obj: 42})
			ck.WaitResume(telemetry.WaitResume{T: 21, Obj: 42, Resumed: 1})
		}, "wait.balance"},
		{"park never resumed", func(ck *Checker) {
			ck.WaitPark(telemetry.WaitPark{T: 20, Obj: 42})
		}, "wait.drain"},
		{"rebuild of a healthy device", func(ck *Checker) {
			ck.RebuildObject(telemetry.RebuildObject{T: 20, Obj: 9, From: 7, To: 1})
		}, "rebuild.source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := Wrap(nil)
			if !fresh[tc.name] {
				feedHealthy(ck)
			}
			tc.inject(ck)
			rep := ck.Finish()
			if rep.OK() {
				t.Fatalf("fault slipped through (want rule %s)", tc.rule)
			}
			for _, v := range rep.Violations {
				if v.Rule == tc.rule {
					return
				}
			}
			t.Fatalf("rule %s did not fire; got:\n%s", tc.rule, rep)
		})
	}
}

func TestCheckerForwardsEveryEvent(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.ClassAll)
	ck := Wrap(tracer)
	feedHealthy(ck)
	if got := tracer.Len(); got != 17 {
		t.Fatalf("inner recorder saw %d of 17 events", got)
	}
}

func TestReportCapsViolations(t *testing.T) {
	ck := Wrap(nil)
	for i := 0; i < maxViolations+10; i++ {
		ck.QueueSample(telemetry.QueueSample{T: 0, Wait: -1})
	}
	rep := ck.Finish()
	if len(rep.Violations) != maxViolations || rep.Dropped != 10 {
		t.Fatalf("cap not applied: %d violations, %d dropped", len(rep.Violations), rep.Dropped)
	}
	if !strings.Contains(rep.String(), "10 more") {
		t.Fatalf("dropped count not rendered:\n%s", rep)
	}
}

// tamper simulates a bookkeeping bug in a real run: it sits between the
// cluster and the checker and swallows every other RequestComplete.
type tamper struct {
	telemetry.Recorder
	n int
}

func (f *tamper) RequestComplete(ev telemetry.RequestComplete) {
	f.n++
	if f.n%2 == 0 {
		return // lost completion
	}
	f.Recorder.RequestComplete(ev)
}

// TestCheckerCatchesFaultyRecorderEndToEnd runs a real (tiny) simulation
// with a lossy recorder chain and asserts the checker convicts it — the
// end-to-end intentional-bug demonstration.
func TestCheckerCatchesFaultyRecorderEndToEnd(t *testing.T) {
	p, ok := trace.LookupProfile("home02")
	if !ok {
		t.Fatal("home02 missing")
	}
	tr, err := trace.Generate(p.Scaled(400), 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := Wrap(nil)
	cfg := cluster.Config{
		OSDs: 8, Groups: 4, ObjectsPerFile: 4, Seed: 1,
		WarmupDisabled: true,
		Migration:      cluster.MigrateMidpoint,
	}
	cl, err := cluster.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRecorder(&tamper{Recorder: ck})
	Bind(ck, cl)
	cl.SetPlanner(migration.NewHDF(migration.Config{Lambda: 0.1}))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	rep := ck.Finish()
	if rep.OK() {
		t.Fatal("checker blessed a run whose completion events were being dropped")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "request.balance" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request.balance did not fire:\n%s", rep)
	}
}

// TestBindSetsRunConstants checks Bind derives the geometry and minimum
// service time from a built cluster.
func TestBindSetsRunConstants(t *testing.T) {
	p, _ := trace.LookupProfile("home02")
	tr, err := trace.Generate(p.Scaled(400), 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := Wrap(nil)
	cl, err := cluster.New(cluster.Config{OSDs: 8, WarmupDisabled: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRecorder(ck)
	Bind(ck, cl)
	if ck.pagesPerBlock != cl.OSD(0).SSD.Config().PagesPerBlock {
		t.Fatalf("pages per block = %d", ck.pagesPerBlock)
	}
	if want := 100 * sim.Microsecond; ck.MinResponse != want {
		t.Fatalf("MinResponse = %v, want %v (the default net overhead)", ck.MinResponse, want)
	}
}
