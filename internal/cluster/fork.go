package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"edm/internal/metrics"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/rng"
	"edm/internal/sim"
)

// ErrUnforkable tags every refusal of Fork and RunPrefix: the cluster
// holds something a copy cannot take over (an observer, a checkpoint
// hook, a closure event, a lock or move in flight), or its run has no
// policy-independent prefix. Test with errors.Is.
var ErrUnforkable = errors.New("cluster cannot be forked")

func unforkable(reason string) error {
	return fmt.Errorf("cluster: %s: %w", reason, ErrUnforkable)
}

// Fork returns a deep copy of a cluster paused between events (built,
// fast-forwarded or paused by RunPrefix, but not running): continued
// with ContinueContext, the copy replays exactly what the original
// would from there. The original is only read — any number of forks of
// one cluster may be taken concurrently, provided nothing runs it — and
// the copy shares no mutable memory with it; the build part (trace,
// fixed placement tables) is shared read-only. A non-nil s donates
// the copy's buffers and device state, as Config.Scratch does for New.
//
// The copy has no planner (planners keep scratch of their own: install
// one with SetPlanner or Retarget), and none of the original's
// observers or checkpoint hook. Fork refuses, with an error wrapping
// ErrUnforkable, a cluster that has a recorder, a metric registry or a
// checkpoint hook attached, a migration round, lock or parked request
// in flight, or a pending event that is a closure (failure injection,
// rebuild) or a wear ticker.
func (c *Cluster) Fork(s *Scratch) (*Cluster, error) {
	switch {
	case c.rec != nil:
		return nil, unforkable("a recorder is attached")
	case c.metrics != nil:
		return nil, unforkable("a metric registry is attached")
	case c.ckFn != nil:
		return nil, unforkable("a checkpoint hook is attached")
	case c.migrating || len(c.locked) > 0 || len(c.waiters) > 0:
		return nil, unforkable("a migration round is in flight")
	}
	seed, draws := c.stream.State()
	if draws != 0 {
		return nil, unforkable("the warm-up stream has been drawn from")
	}
	remap := *c.remap
	f := &Cluster{
		build:      c.build,
		counters:   c.counters,
		remap:      &remap,
		stream:     rng.New(seed),
		owner:      slices.Clone(c.owner),
		oslot:      slices.Clone(c.oslot),
		moves:      slices.Clone(c.moves),
		failed:     maps.Clone(c.failed),
		locked:     make(map[object.ID]bool),
		waiters:    make(map[object.ID][]pendingOp),
		respSeries: c.respSeries.Clone(),
		respAll:    &metrics.Histogram{},
		respMigr:   &metrics.Histogram{},
	}
	f.adopt(s)
	f.osds = f.recycleOSDs(len(c.osds))
	for i, o := range c.osds {
		d := f.osds[i]
		ssd := o.SSD.Clone(d.SSD)
		st, tk := o.Store.Clone(ssd, d.Store), o.Tracker.Clone(d.Tracker)
		*d = *o
		d.SSD, d.Store, d.Tracker = ssd, st, tk
	}
	// Size the sample buffer for the whole run, as prepare does.
	resp := f.respAll.Buffer()
	if cap(resp) < c.totalOps {
		resp = make([]float64, 0, c.totalOps)
	}
	f.respAll = c.respAll.Clone(resp)
	f.respMigr = c.respMigr.Clone(f.respMigr.Buffer())
	f.copyStreams(c)

	index := make(map[*stream]int, len(c.streams))
	for i := range c.streams {
		index[&c.streams[i]] = i
	}
	streamOf := func(st *stream) *stream {
		if i, ok := index[st]; ok {
			return &f.streams[i]
		}
		return nil
	}
	eng, err := c.eng.Fork(f.engine, func(a sim.Action) sim.Action {
		switch a := a.(type) {
		case *stream:
			if st := streamOf(a); st != nil {
				return st
			}
		case *opDone:
			d := f.acquireDone()
			d.issued, d.rec, d.parked, d.st = a.issued, a.rec, a.parked, nil
			if a.st == nil {
				return d
			}
			if d.st = streamOf(a.st); d.st != nil {
				return d
			}
		}
		return nil
	})
	if err != nil {
		if s != nil {
			*s = *f.Release()
		}
		return nil, fmt.Errorf("cluster: %w: %w", err, ErrUnforkable)
	}
	f.eng, f.engine = eng, nil
	return f, nil
}

// copyStreams gives f copies of c's stream cursors, their position
// lists carved in order out of one buffer, as buildStreams carves them.
func (f *Cluster) copyStreams(c *Cluster) {
	pos := f.posBuf[:0]
	for i := range c.streams {
		pos = append(pos, c.streams[i].pos...)
	}
	streams := f.streams[:0]
	off := 0
	for i := range c.streams {
		n := len(c.streams[i].pos)
		streams = append(streams, stream{c: f, pos: pos[off : off+n : off+n], next: c.streams[i].next})
		off += n
	}
	f.posBuf, f.streams = pos, streams
}

// RunPrefix replays a freshly built cluster's policy-independent prefix
// and pauses at its end: the last point between events at which no
// migration policy has acted, where every policy's run of one
// configuration and trace holds the same state. Such a prefix exists
// for a closed-loop run that migrates at the midpoint or never. The
// midpoint shuffle fires in the event that completes operation ⌊n/2⌋ of
// n, and every earlier event is a stream kick-off or a completion, so
// the pause comes after streams + ⌊n/2⌋ − 1 events, with ⌊n/2⌋ − 1
// operations complete (which RunPrefix checks). An open-loop run (whose
// arrivals are events too), a periodic one (which consults its planner
// from the first tick), a trace of fewer than two operations and a
// cluster with events queued before its run (failure injection) are
// refused with ErrUnforkable before anything runs. The checkpoint hook
// stays disarmed, as in FastForward; continue with ContinueContext.
func (c *Cluster) RunPrefix(ctx context.Context) error {
	switch {
	case c.cfg.OpenLoopRate > 0:
		return unforkable("an open-loop run has no policy-independent prefix")
	case c.cfg.Migration == MigratePeriodic:
		return unforkable("periodic migration consults the planner from the first tick")
	case len(c.tr.Records) < 2:
		return unforkable("a trace of fewer than two operations has no prefix")
	case c.eng.Pending() > 0:
		return unforkable("events are queued before the run")
	}
	if err := c.prepare(ctx); err != nil {
		return err
	}
	half := c.totalOps / 2
	if err := c.replayTo(ctx, uint64(len(c.streams)+half-1)); err != nil {
		return err
	}
	if c.completedOps != half-1 || c.migrations != 0 {
		return fmt.Errorf("cluster: prefix paused with %d/%d operations complete and %d migration rounds, want %d and none",
			c.completedOps, c.totalOps, c.migrations, half-1)
	}
	return nil
}

// Retarget installs the migration mode and planner a fork continues
// under. The migration controller must not have acted yet: the cluster
// is unstarted, or paused before its midpoint with no round run.
// Periodic mode, on either side, is refused (its ticker would have had
// to run from the start).
func (c *Cluster) Retarget(mode MigrationMode, p migration.Planner) error {
	switch {
	case mode == MigratePeriodic || c.cfg.Migration == MigratePeriodic:
		return fmt.Errorf("cluster: retarget to or from periodic migration")
	case c.migrations > 0 || c.migrating:
		return fmt.Errorf("cluster: retarget after a migration round")
	case c.totalOps > 0 && c.completedOps >= c.totalOps/2:
		return fmt.Errorf("cluster: retarget past the midpoint (%d/%d operations complete)", c.completedOps, c.totalOps)
	}
	c.cfg.Migration, c.planner, c.migrateAfter = mode, p, 0
	if mode == MigrateMidpoint && c.totalOps > 0 {
		c.migrateAfter = c.totalOps / 2
	}
	return nil
}
