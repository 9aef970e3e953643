package cluster

import (
	"fmt"

	"edm/internal/raid"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// FailOSD marks a device as failed at virtual time at (schedule before
// Run). A failed OSD serves nothing; operations that need its objects
// switch to RAID-5 degraded mode:
//
//   - reads reconstruct the lost column from the file's k−1 surviving
//     objects (one same-sized read on every survivor);
//   - writes update the surviving columns (the lost column's contents
//     are implicitly carried by parity).
//
// One failure per group is survivable by construction (§III.D: no
// stripe has two objects in one group). A second failure in a
// *different* group makes some stripes unreadable; those operations are
// counted in Result.LostOps rather than silently served.
//
// Edge semantics (pinned by TestFailOSDEdgeSemantics):
//   - failing an already-failed OSD is a no-op: no second
//     DeviceFailure event, no counter movement;
//   - a failure scheduled at or after the last operation still fires
//     (the engine drains its whole queue), marking the device failed
//     and extending the reported makespan, but loses no operations.
func (c *Cluster) FailOSD(osd int, at sim.Time) {
	if osd < 0 || osd >= len(c.osds) {
		panic(fmt.Sprintf("cluster: FailOSD(%d) out of range", osd))
	}
	c.eng.At(at, func(now sim.Time) {
		if c.failed[osd] {
			return
		}
		c.failed[osd] = true
		c.failedAt = now
		if c.rec != nil {
			c.rec.DeviceFailure(telemetry.DeviceFailure{T: now, OSD: osd})
		}
	})
}

// RepairOSD schedules a failed device's return to service at virtual
// time at — the recovery half of a transient outage. Repairing a live
// device is a no-op. The simulation carries no data payloads, so a
// repaired replica is considered current on return; objects already
// reconstructed elsewhere by a Rebuild were deleted from the device's
// directory at their commit, so exactly-once residency holds across
// fail → rebuild → repair (an Audit invariant the chaos harness
// exercises).
func (c *Cluster) RepairOSD(osd int, at sim.Time) {
	if osd < 0 || osd >= len(c.osds) {
		panic(fmt.Sprintf("cluster: RepairOSD(%d) out of range", osd))
	}
	c.eng.At(at, func(now sim.Time) {
		if !c.failed[osd] {
			return
		}
		delete(c.failed, osd)
		if c.rec != nil {
			c.rec.DeviceRepair(telemetry.DeviceRepair{T: now, OSD: osd})
		}
	})
}

// SlowOSD schedules a transient per-device latency degradation: from
// virtual time at until at+d, every device service on the OSD takes
// factor times its normal latency (queueing and the fixed network
// overhead are unaffected). Overlapping windows keep the later end and
// the last factor. factor must be >= 1 and d positive.
func (c *Cluster) SlowOSD(osd int, at, d sim.Time, factor float64) {
	if osd < 0 || osd >= len(c.osds) {
		panic(fmt.Sprintf("cluster: SlowOSD(%d) out of range", osd))
	}
	if factor < 1 || d <= 0 {
		panic(fmt.Sprintf("cluster: SlowOSD(%d) needs factor >= 1 and a positive duration, got %v over %v", osd, factor, d))
	}
	c.eng.At(at, func(now sim.Time) {
		o := c.osds[osd]
		until := now + d
		if until > o.slowUntil {
			o.slowUntil = until
		}
		o.slowFactor = factor
		if c.rec != nil {
			c.rec.DeviceSlowdown(telemetry.DeviceSlowdown{T: now, OSD: osd, Factor: factor, Until: o.slowUntil})
		}
	})
}

// Failed reports whether the device is currently failed.
func (c *Cluster) Failed(osd int) bool { return c.failed[osd] }

// degradedFanOut serves a file operation when at least one of its
// sub-operations targets a failed device. Accesses to live devices
// proceed normally; accesses to failed ones are replaced by
// reconstruction I/O on the survivors.
func (c *Cluster) degradedFanOut(rec trace.Record, now sim.Time) sim.Time {
	var accs = c.accessesFor(rec)
	done := now
	k := c.cfg.ObjectsPerFile
	base := c.objIndex(rec.File, 0)
	for _, a := range accs {
		oi := base + int32(a.Obj)
		if !c.failed[int(c.owner[oi])] {
			end := c.subOp(oi, []raid.Access{a}, now)
			if end > done {
				done = end
			}
			continue
		}
		// Reconstruct from the survivors: same byte range on each of
		// the file's other objects.
		c.degradedOps++
		survivors := 0
		for j := 0; j < k; j++ {
			if j == a.Obj {
				continue
			}
			peer := base + int32(j)
			if c.failed[int(c.owner[peer])] {
				continue // second failure in this stripe
			}
			survivors++
			ra := a
			ra.Obj = j
			if a.Write {
				// Degraded write: survivors absorb the update (parity
				// carries the lost column).
				ra.PreRead = true
			} else {
				ra.Write = false
				ra.PreRead = true
			}
			end := c.subOp(peer, []raid.Access{ra}, now)
			if end > done {
				done = end
			}
		}
		if survivors < k-1 || (c.cfg.TestHooks.MiscountLostOps && survivors == k-1) {
			// Fewer than k−1 columns left: the stripe is unreadable.
			// (The TestHooks clause is a deliberately planted defect the
			// chaos harness's self-test must find; see Config.TestHooks.)
			c.lostOps++
		}
	}
	return done
}

// accessesFor returns the RAID accesses of a data record in the shared
// scratch buffer (valid until the next access computation).
func (c *Cluster) accessesFor(rec trace.Record) []raid.Access {
	switch rec.Kind {
	case trace.OpRead:
		c.accsBuf = c.geom.AppendReadAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
		return c.accsBuf
	case trace.OpWrite:
		c.accsBuf = c.geom.AppendWriteAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
		return c.accsBuf
	}
	return nil
}

// anyFailedTarget reports whether the record touches an object on a
// failed device.
func (c *Cluster) anyFailedTarget(rec trace.Record) bool {
	if len(c.failed) == 0 {
		return false
	}
	base := c.objIndex(rec.File, 0)
	for _, a := range c.accessesFor(rec) {
		if c.failed[int(c.owner[base+int32(a.Obj)])] {
			return true
		}
	}
	return false
}
