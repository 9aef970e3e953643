package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"edm"
	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/sim"
	"edm/internal/snapshot"
)

// timedPlanner times every Plan call of the planner it wraps and counts
// what was planned. It forwards migration.Forcible: the midpoint
// shuffle forces its round through that interface, and a decorator that
// hid it would turn every forced round into a gated one that rarely
// moves anything.
type timedPlanner struct {
	migration.Planner
	tr     *tracer
	parent int

	calls, moves int
	bytes        int64
}

func (p *timedPlanner) Plan(s *migration.Snapshot) []migration.Move {
	id := p.tr.begin("migration.plan", p.parent)
	moves := p.Planner.Plan(s)
	p.tr.end(id)
	p.calls++
	p.moves += len(moves)
	for _, m := range moves {
		p.bytes += m.Bytes
	}
	return moves
}

func (p *timedPlanner) SetForce(on bool) {
	if f, ok := p.Planner.(migration.Forcible); ok {
		f.SetForce(on)
	}
}

func (p *timedPlanner) Forced() bool {
	f, ok := p.Planner.(migration.Forcible)
	return ok && f.Forced()
}

// barePlanner builds the planner edm.NewCluster installs for spec (nil
// for the baseline). It mirrors the library's choice for a spec without
// a MigrationConfig, which is every spec this benchmark runs.
func barePlanner(spec edm.Spec) migration.Planner {
	cfg := migration.DefaultConfig()
	if spec.Lambda != 0 {
		cfg.Lambda = spec.Lambda
	}
	switch spec.Policy {
	case edm.PolicyCMT:
		return migration.NewCMT(cfg)
	case edm.PolicyHDF:
		return migration.NewHDF(cfg)
	case edm.PolicyCDF:
		return migration.NewCDF(cfg)
	}
	return nil
}

// layers is what one unit's traced steps counted.
type layers struct {
	records      int    // trace records
	events       uint64 // events fired by the (uninterrupted) run
	replayed     uint64 // events a resume fast-forwarded
	resumeEvents uint64 // events a resume fired in total
	planCalls    int
	moves        int
	plannedBytes int64
	frames       int
	frameBytes   int64

	// The serving path, from client-side timing and job status.
	submitMs, queueMs, execMs float64
	deliveryMs                float64 // job end to result line read
	resultBytes               int
}

// steps runs edm.Run and edm.Resume taken apart into the public calls
// they are made of, recording a span around each call.
type steps struct {
	tr     *tracer
	parent int
	ly     *layers
}

func (s steps) span(name string, fn func() error) error {
	id := s.tr.begin(name, s.parent)
	err := fn()
	s.tr.end(id)
	return err
}

// newCluster is the first half of edm.Run: BuildTrace (unless the spec
// already carries its trace), NewCluster, then the timing planner in
// place of the one NewCluster installed.
func (s steps) newCluster(spec *edm.Spec) (*cluster.Cluster, *timedPlanner, error) {
	if spec.Trace == nil {
		err := s.span("trace.generate", func() (err error) {
			spec.Trace, err = edm.BuildTrace(*spec)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	s.ly.records = len(spec.Trace.Records)
	var cl *cluster.Cluster
	err := s.span("cluster.new", func() (err error) {
		cl, err = edm.NewCluster(*spec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var tp *timedPlanner
	if p := barePlanner(*spec); p != nil {
		tp = &timedPlanner{Planner: p, tr: s.tr}
		cl.SetPlanner(tp)
	}
	return cl, tp, nil
}

// run is edm.Run(ctx, spec) or, with a non-nil ck, edm.Run(ctx, spec,
// edm.WithCheckpoint(ck, every)), in steps. The checkpoint hook is the
// one edm installs, with a span around each frame's capture and encode.
func (s steps) run(ctx context.Context, spec edm.Spec, ck io.Writer, every uint64) (*edm.Result, error) {
	if ck != nil {
		spec.CheckpointEvery = every
		spec.Cluster.CheckpointEvery = every
	}
	cl, tp, err := s.newCluster(&spec)
	if err != nil {
		return nil, err
	}
	runID := s.tr.begin("cluster.run", s.parent)
	if tp != nil {
		tp.parent = runID
	}
	if ck != nil {
		snapSpec := spec
		snapSpec.Trace = nil
		specJSON, err := json.Marshal(snapSpec)
		if err != nil {
			return nil, fmt.Errorf("encoding checkpoint spec: %w", err)
		}
		cl.SetCheckpoint(func(sim.Time) error {
			if cl.Engine().Fired()%every != 0 {
				return nil
			}
			id := s.tr.begin("snapshot.capture", runID)
			defer s.tr.end(id)
			return snapshot.Capture(cl, specJSON, nil).EncodeTo(ck)
		})
	}
	res, err := cl.RunContext(ctx)
	s.tr.end(runID)
	s.ly.events = cl.Engine().Fired()
	if tp != nil {
		s.ly.planCalls += tp.calls
		s.ly.moves += tp.moves
		s.ly.plannedBytes += tp.bytes
	}
	return res, err
}

// resume is edm.Resume(ctx, frames) in steps: ReadLast, BuildTrace,
// NewCluster, FastForward, Verify, ContinueContext. Planner counts of a
// resume are not added to the unit's: its run already counted them.
func (s steps) resume(ctx context.Context, frames []byte) (*edm.Result, error) {
	var snap *snapshot.Snapshot
	err := s.span("snapshot.readlast", func() (err error) {
		snap, err = snapshot.ReadLast(bytes.NewReader(frames))
		return err
	})
	if err != nil {
		return nil, err
	}
	var spec edm.Spec
	if err := json.Unmarshal(snap.SpecJSON, &spec); err != nil {
		return nil, fmt.Errorf("decoding checkpoint spec: %w", err)
	}
	cl, tp, err := s.newCluster(&spec)
	if err != nil {
		return nil, err
	}
	ffID := s.tr.begin("cluster.fastforward", s.parent)
	if tp != nil {
		tp.parent = ffID
	}
	err = cl.FastForward(ctx, snap.Fired)
	s.tr.end(ffID)
	if err != nil {
		return nil, err
	}
	if err := s.span("snapshot.verify", func() error { return snapshot.Verify(cl, snap) }); err != nil {
		return nil, err
	}
	contID := s.tr.begin("cluster.continue", s.parent)
	if tp != nil {
		tp.parent = contID
	}
	res, err := cl.ContinueContext(ctx)
	s.tr.end(contID)
	s.ly.replayed = snap.Fired
	s.ly.resumeEvents = cl.Engine().Fired()
	return res, err
}

// frameBuf collects a run's checkpoint frames and where each one ends;
// edm writes every frame with a single Write call.
type frameBuf struct {
	bytes.Buffer
	ends []int
}

func (f *frameBuf) Write(p []byte) (int, error) {
	n, err := f.Buffer.Write(p)
	f.ends = append(f.ends, f.Len())
	return n, err
}

// cut returns the stream up to frame ⌊¾·n⌋ of the n frames written.
// Frame j lands at j·every fired events and the run fired at least
// n·every, so the cut frame lies at or before ¾ of the run's events.
func (f *frameBuf) cut() ([]byte, error) {
	k := len(f.ends) * 3 / 4
	if k == 0 {
		return nil, fmt.Errorf("run wrote %d checkpoint frames, too few to cut at ¾", len(f.ends))
	}
	return f.Bytes()[:f.ends[k-1]], nil
}
