package cluster

import (
	"edm/internal/migration"
	"edm/internal/raid"
	"edm/internal/sim"
)

// Scratch carries the reusable per-run buffers of a finished cluster to
// the next one: RAID access scratch, the pooled operation-completion
// records, the response-histogram sample buffer, the stream-sharding
// index arrays, and the migration-snapshot and state-export arenas.
// Repeated runs in an experiment sweep reach steady state without
// re-growing any of them.
//
// A Scratch is owned by exactly one run at a time (hand it to
// Config.Scratch, recover it with Cluster.Release); the experiment
// harness cycles them through a sync.Pool across its worker pool.
type Scratch struct {
	accsBuf  []raid.Access
	groupBuf []raid.Access
	// donePool is a free list of reusable records: its full length is
	// kept across runs (truncating would leak the pooled records).
	donePool []*opDone
	// resp is the response-sample buffer between runs; a live cluster
	// lends it to respAll.
	resp       []float64
	posBuf     []int32
	userCnt    []int32
	userLookup []int32
	streams    []stream
	arrivals   []arrival
	snapDevs   []migration.DeviceState
	snapObjs   []migration.ObjectInfo
	planSnap   migration.Snapshot
	queueBuf   []sim.QueueEntry
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
	c.resp, c.streams = nil, c.streams[:0]
}

// Release surrenders the cluster's (possibly grown) scratch buffers for
// reuse by a subsequent run. Call it only after Run has returned and the
// Result has been read; the cluster must not be used afterwards.
func (c *Cluster) Release() *Scratch {
	s := c.scratch
	s.resp = c.respAll.Buffer()
	c.scratch = Scratch{}
	return &s
}
