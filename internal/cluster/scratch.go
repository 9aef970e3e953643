package cluster

import (
	"edm/internal/flash"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/raid"
	"edm/internal/sim"
	"edm/internal/temperature"
)

// Scratch carries the reusable per-run buffers of a finished cluster to
// the next one: RAID access scratch, the pooled operation-completion
// records, the response-histogram sample buffers, the stream-sharding
// index arrays, the migration-snapshot and state-export arenas, the
// event engine (its slots) and the devices (SSD tables, store and
// tracker columns). Repeated runs in an experiment sweep reach steady
// state without re-growing any of them.
//
// A Scratch is owned by exactly one run at a time (hand it to
// Config.Scratch or Fork, recover it with Cluster.Release), so each
// buffer belongs to one idle Scratch or one live cluster, and a
// released one reaches no cluster. The experiment harness cycles them
// through a sync.Pool across its worker pool.
type Scratch struct {
	accsBuf  []raid.Access
	groupBuf []raid.Access
	// donePool is a free list of reusable records: its full length is
	// kept across runs (truncating would leak the pooled records).
	donePool []*opDone
	// resp and migr are the response-sample buffers between runs; a
	// live cluster lends them to respAll and respMigr.
	resp, migr []float64
	posBuf     []int32
	userCnt    []int32
	userLookup []int32
	streams    []stream
	arrivals   []arrival
	snapDevs   []migration.DeviceState
	snapObjs   []migration.ObjectInfo
	planSnap   migration.Snapshot
	queueBuf   []sim.QueueEntry
	engine     *sim.Engine // reset by Release
	devs       []*OSD
}

// scratch embeds Scratch in Cluster under an unexported name.
type scratch = Scratch

// adopt installs donated buffers into a freshly built or forked cluster
// and empties s. The stream cursors are the donor's run state: they are
// dropped, or a built cluster would seal and fork them.
func (c *Cluster) adopt(s *Scratch) {
	if s == nil {
		return
	}
	c.scratch, *s = *s, Scratch{}
	c.respAll.Reset(c.resp)
	c.respMigr.Reset(c.migr)
	c.resp, c.migr, c.streams = nil, nil, c.streams[:0]
}

// recycleOSDs returns n OSDs for the cluster to overwrite: the donated
// devices first, with those a smaller cluster left beyond the slice's
// length, then new, empty ones.
func (c *Cluster) recycleOSDs(n int) []*OSD {
	osds := append(c.devs[:min(n, cap(c.devs))], make([]*OSD, max(n-cap(c.devs), 0))...)
	for i, o := range osds {
		if o == nil {
			osds[i] = &OSD{SSD: &flash.SSD{}, Store: &object.Store{}, Tracker: &temperature.Tracker{}}
		}
	}
	c.devs = nil
	return osds
}

// Release surrenders the cluster's (possibly grown) scratch buffers, its
// engine and its devices for reuse by a subsequent run. Call it only
// after Run has returned and the Result has been read; the cluster must
// not be used afterwards. The pooled records, stream and arrival
// entries, planner snapshot, engine slots and SSD probes drop their
// pointers into the cluster.
func (c *Cluster) Release() *Scratch {
	s := c.scratch
	c.scratch = Scratch{}
	s.resp, s.migr = c.respAll.Buffer(), c.respMigr.Buffer()
	if c.eng != nil {
		c.eng.Reset()
		s.engine, c.eng = c.eng, nil
	}
	s.devs, c.osds = c.osds, nil
	for _, o := range s.devs {
		o.SSD.SetProbe(nil)
	}
	for _, d := range s.donePool {
		d.c = nil
	}
	clear(s.streams[:cap(s.streams)])
	clear(s.arrivals[:cap(s.arrivals)])
	s.planSnap.Recorder = nil
	return &s
}
