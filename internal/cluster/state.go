package cluster

import (
	"fmt"
	"slices"

	"edm/internal/fnvx"
	"edm/internal/metrics"
	"edm/internal/object"
	"edm/internal/sim"
)

// State is a digest-sealed capture of a cluster mid-run, taken between
// simulation events: the replay position, and one digest per section
// of state — the cluster's nine sections, then four for each OSD in
// turn (clusterSections and osdSections name them). Together the
// sections pin every behaviorally significant value, so two States are
// equal iff the two runs are at the same point of the same
// deterministic execution.
//
// Capture is strictly read-only: exporting a State mutates nothing,
// which is what keeps a checkpointed run byte-identical to an
// uncheckpointed one.
type State struct {
	Fired    uint64   `json:"fired"`
	Now      int64    `json:"now"`
	Sections []uint64 `json:"sections"`
}

// The sections of a State, in order.
var (
	clusterSections = []string{
		"event queue", "run counters", "placement tables", "remap table",
		"HDF locks/waiters", "stream cursors", "response statistics", "rng", "trace",
	}
	osdSections = []string{"flash", "object store", "temperature tracker", "service queue"}
)

// ExportState captures the cluster's full state. It walks every SSD's
// mapping tables, so it is O(total pages) — meant for checkpoint
// cadences, not per-event paths.
func (c *Cluster) ExportState() *State {
	s := &State{Fired: c.eng.Fired(), Now: int64(c.eng.Now())}
	s.Sections = make([]uint64, 0, len(clusterSections)+len(osdSections)*len(c.osds))
	seed, draws := c.stream.State()
	s.Sections = append(s.Sections,
		c.queueDigest(), c.countersDigest(), c.tablesDigest(), c.remapDigest(),
		c.locksDigest(), c.streamsDigest(), c.responseDigest(),
		fnvx.New().Uint64(seed).Uint64(draws).Sum(),
		fnvx.New().String(c.tr.Name).Int(len(c.tr.Records)).Int(len(c.tr.Files)).Int(c.tr.Users).Sum())
	for _, o := range c.osds {
		s.Sections = append(s.Sections,
			o.SSD.StateDigest(), o.Store.StateDigest(), o.Tracker.StateDigest(o.Store), o.stateDigest())
	}
	return s
}

// queueDigest seals the engine: its sequence counter and the pending
// schedule as (at, seq) pairs in deterministic order, which pin it
// without serializing the (closure-typed) actions.
func (c *Cluster) queueDigest() uint64 {
	c.queueBuf = c.eng.AppendQueue(c.queueBuf[:0])
	h := fnvx.New().Uint64(c.eng.Seq()).Int(len(c.queueBuf))
	for _, e := range c.queueBuf {
		h = h.Int64(int64(e.At)).Uint64(e.Seq)
	}
	return h.Sum()
}

// countersDigest seals every counters field, the planned moves and the
// failure set.
func (c *Cluster) countersDigest() uint64 {
	n := &c.counters
	h := fnvx.New().Int(n.completedOps).Int(n.totalOps).Int(n.migrateAfter).Bool(n.migrating).
		Uint64(n.rejected).Uint64(n.blockedSubOps).
		Int(n.migrations).Uint64(n.movesCommitted).Int64(n.movedPages).Int64(n.movedBytes).
		Int64(int64(n.migStart)).Int64(int64(n.migEnd)).
		Int64(int64(n.failedAt)).Uint64(n.degradedOps).Uint64(n.lostOps).
		Int(n.rebuilt).Int64(n.rebuiltBytes).Int(n.unrebuildable).
		Int64(int64(n.rebuildStart)).Int64(int64(n.rebuildEnd))
	h = h.Int(len(c.moves))
	for _, m := range c.moves {
		h = h.Int64(int64(m.Obj)).Int(m.Src).Int(m.Dst).Int64(m.Pages).Int64(m.Bytes)
	}
	failed := make([]int, 0, len(c.failed))
	for id := range c.failed {
		failed = append(failed, id)
	}
	slices.Sort(failed)
	h = h.Int(len(failed))
	for _, id := range failed {
		h = h.Int(id)
	}
	return h.Sum()
}

// tablesDigest seals the dense placement tables.
func (c *Cluster) tablesDigest() uint64 {
	h := fnvx.New().Int(int(c.k)).Int(len(c.oids))
	for i := range c.oids {
		h = h.Int64(int64(c.oids[i])).Int(int(c.owner[i])).
			Int(int(c.oslot[i])).Int(int(c.ohome[i]))
	}
	return h.Sum()
}

// remapDigest seals the remapping table: its counters, then each entry
// as (id, OSD) in ascending id order. Frames of version 3 carry this
// word as a dense array below id 1<<22 and a sorted map above it hashed
// it, which is ascending order because ids are never negative
// (trace.Validate refuses negative file ids).
func (c *Cluster) remapDigest() uint64 {
	r := c.remap
	h := fnvx.New().Int(r.entries).Int(r.peak).
		Uint64(r.moves).Uint64(r.inserts).Uint64(r.updates).Uint64(r.removals)
	for oi, own := range c.owner {
		if own != c.ohome[oi] {
			h = h.Int64(int64(c.oids[oi])).Int(int(own))
		}
	}
	return h.Sum()
}

// locksDigest seals the HDF locks and parked requests, in sorted
// object-id order.
func (c *Cluster) locksDigest() uint64 {
	h := fnvx.New().Int(len(c.locked)).Int(len(c.waiters))
	ids := make([]object.ID, 0, len(c.locked))
	for id := range c.locked {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h = h.Int64(int64(id))
	}
	ids = ids[:0]
	for id := range c.waiters {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h = h.Int64(int64(id))
		for _, p := range c.waiters[id] {
			h = h.Int(int(p.rec.User)).Int64(int64(p.rec.File)).
				Byte(byte(p.rec.Kind)).Int64(p.rec.Offset).Int64(p.rec.Size).
				Int64(int64(p.issued)).Bool(p.parked).Bool(p.st != nil)
		}
	}
	return h.Sum()
}

// streamsDigest seals the stream cursors (the closed-loop replay
// position per user).
func (c *Cluster) streamsDigest() uint64 {
	h := fnvx.New().Int(len(c.streams))
	for i := range c.streams {
		h = h.Int(c.streams[i].next).Int(len(c.streams[i].pos))
	}
	return h.Sum()
}

// responseDigest seals the response statistics: raw samples in
// observation order plus the time-series buckets.
func (c *Cluster) responseDigest() uint64 {
	h := fnvx.New()
	for _, hist := range []*metrics.Histogram{c.respAll, c.respMigr} {
		xs := hist.Samples()
		h = h.Int(len(xs))
		for _, x := range xs {
			h = h.Float64(x)
		}
	}
	for _, p := range c.respSeries.Points() {
		h = h.Float64(p.Time).Float64(p.Mean).Int64(p.Count)
	}
	return h.Sum()
}

// stateDigest seals the OSD's service queue and per-device counters.
func (o *OSD) stateDigest() uint64 {
	return fnvx.New().Int64(int64(o.busyUntil)).Int64(int64(o.slowUntil)).
		Float64(o.slowFactor).Uint64(o.subOps).
		Int64(int64(o.busyTime)).Int64(int64(o.busyAtMig)).
		Float64(o.load.Value()).Bool(o.load.Started()).Sum()
}

// Diff compares a freshly exported State against a sealed capture and
// returns one message per mismatching section (empty when identical),
// so a resumed run that drifted in, say, one device's GC order reports
// that device rather than a bare "digest mismatch".
func (s *State) Diff(want *State) []string {
	var out []string
	if s.Fired != want.Fired || s.Now != want.Now {
		out = append(out, fmt.Sprintf("position: event %d at %v, want event %d at %v",
			s.Fired, sim.Time(s.Now), want.Fired, sim.Time(want.Now)))
	}
	if len(s.Sections) != len(want.Sections) {
		return append(out, fmt.Sprintf("sections: %d, want %d (a different OSD count?)",
			len(s.Sections), len(want.Sections)))
	}
	for i, d := range s.Sections {
		if d != want.Sections[i] {
			out = append(out, fmt.Sprintf("%s: digest %x, want %x", sectionName(i), d, want.Sections[i]))
		}
	}
	return out
}

// sectionName names the i-th section of a State.
func sectionName(i int) string {
	if i < len(clusterSections) {
		return clusterSections[i]
	}
	i -= len(clusterSections)
	return fmt.Sprintf("osd%d %s", i/len(osdSections), osdSections[i%len(osdSections)])
}
