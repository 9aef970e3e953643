package main

import (
	"bytes"
	"context"
	"testing"

	"edm"
	"edm/internal/migration"
	"edm/internal/snapshot"
)

// hidingPlanner wraps a planner without forwarding migration.Forcible,
// the mistake timedPlanner must not make.
type hidingPlanner struct{ migration.Planner }

// The timing decorator must forward Forcible: with it, the traced steps
// plan and move exactly what the bare planner does; a decorator that
// hides it turns the forced midpoint round into a gated one.
func TestTimedPlannerForwardsForce(t *testing.T) {
	ctx := context.Background()
	spec := edm.Spec{Workload: "deasna", OSDs: 16, Policy: edm.PolicyHDF, Scale: 200, Seed: 1, Lambda: 0.9}
	bare, err := edm.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if bare.MovedObjects == 0 {
		t.Fatal("the forced round moved nothing; the spec no longer exercises forcing")
	}

	var ly layers
	res, err := steps{&tracer{}, 0, &ly}.run(ctx, spec, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedObjects != bare.MovedObjects || !sameResult(res, bare) {
		t.Errorf("decorated run moved %d objects, bare %d (results equal: %v)",
			res.MovedObjects, bare.MovedObjects, sameResult(res, bare))
	}
	if ly.planCalls == 0 || ly.moves != bare.MovedObjects {
		t.Errorf("decorator counted %d calls and %d moves, want %d moves", ly.planCalls, ly.moves, bare.MovedObjects)
	}

	cl, err := edm.NewCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(hidingPlanner{barePlanner(spec)})
	hidden, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hidden.MovedObjects == bare.MovedObjects {
		t.Errorf("hiding Forcible left %d moves unchanged; the test no longer shows why forwarding matters", hidden.MovedObjects)
	}
}

// A checkpoint stream cut at a frame boundary resumes to the
// uninterrupted result, through edm.Resume and through the traced
// steps; the steps write the same frames edm.Run does.
func TestFrameCutResumes(t *testing.T) {
	ctx := context.Background()
	const every = 500
	spec := edm.Spec{Workload: "deasna", OSDs: 16, Policy: edm.PolicyHDF, Scale: 200, Seed: 1}
	var frames frameBuf
	res, err := edm.Run(ctx, spec, edm.WithCheckpoint(&frames, every))
	if err != nil {
		t.Fatal(err)
	}
	n := len(frames.ends)
	if n < 4 {
		t.Fatalf("%d frames, want at least 4", n)
	}
	cut, err := frames.cut()
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(n * 3 / 4)
	snap, err := snapshot.ReadLast(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fired != k*every {
		t.Errorf("cut stream ends at event %d, want frame %d at %d", snap.Fired, k, k*every)
	}
	// One byte short of the boundary tears frame k: the stream then
	// ends at frame k-1, so the cut is exactly on a boundary.
	if torn, err := snapshot.ReadLast(bytes.NewReader(cut[:len(cut)-1])); err != nil || torn.Fired != (k-1)*every {
		t.Errorf("torn cut: %v, %v; want frame at %d", torn, err, (k-1)*every)
	}

	resumed, err := edm.Resume(ctx, bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, resumed) {
		t.Error("edm.Resume from the cut differs from the uninterrupted run")
	}

	var ly layers
	s := steps{&tracer{}, 0, &ly}
	var stepFrames frameBuf
	if _, err := s.run(ctx, spec, &stepFrames, every); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stepFrames.Bytes(), frames.Bytes()) {
		t.Error("the traced steps wrote different checkpoint frames than edm.Run")
	}
	stepped, err := s.resume(ctx, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, stepped) {
		t.Error("the traced resume differs from the uninterrupted run")
	}
	if ly.replayed != snap.Fired || ly.resumeEvents != ly.events || 4*ly.replayed > 3*ly.events {
		t.Errorf("resume replayed %d of %d events (run fired %d); want the cut's %d, at most ¾",
			ly.replayed, ly.resumeEvents, ly.events, snap.Fired)
	}
}
