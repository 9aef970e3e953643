package cluster

import (
	"fmt"

	"edm/internal/object"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
	"edm/internal/trace"
)

// Rebuild schedules a declustered RAID-5 rebuild of the failed device's
// objects at virtual time at: each lost object is reconstructed by
// reading its stripe's k−1 surviving objects and written to one of the
// failed device's *group peers* — the §III.D-consistent destination,
// since intra-group placement never co-locates two objects of a stripe.
// Rebuilt objects are remapped to their new home, so degraded reads for
// them stop as soon as each object commits; rebuild I/O flows through
// the same serial device queues as foreground traffic.
//
// Destinations rotate through the group's surviving members by free
// space. Rebuild of an object whose stripe has lost a second column is
// skipped and counted in Result.UnrebuildableObjects.
func (c *Cluster) Rebuild(failedOSD int, at sim.Time) {
	if failedOSD < 0 || failedOSD >= len(c.osds) {
		panic(fmt.Sprintf("cluster: Rebuild(%d) out of range", failedOSD))
	}
	c.eng.At(at, func(now sim.Time) { c.startRebuild(failedOSD, now) })
}

func (c *Cluster) startRebuild(failedOSD int, now sim.Time) {
	if !c.failed[failedOSD] {
		// Nothing to rebuild; count it as an empty round.
		return
	}
	c.rebuildStart = now

	// The object directory survives the device (it lives at the MDS);
	// the data does not.
	lost := c.osds[failedOSD].Store.IDs()
	if c.rec != nil {
		c.rec.RebuildStart(telemetry.RebuildStart{T: now, OSD: failedOSD, Objects: len(lost)})
	}
	rebuiltBase, unrebuildableBase := c.rebuilt, c.unrebuildable

	// Surviving group peers, by §III.D the only legal destinations.
	var peers []int
	for _, p := range c.layout.GroupMembers(c.layout.GroupOf(failedOSD)) {
		if p != failedOSD && !c.failed[p] {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 || len(lost) == 0 {
		c.rebuildEnd = now
		if c.rec != nil {
			c.rec.RebuildEnd(telemetry.RebuildEnd{T: now, OSD: failedOSD})
		}
		return
	}

	// One serial rebuild chain (a real rebuilder throttles itself; one
	// object in flight keeps foreground interference bounded).
	var step func(i, peerIdx int, at sim.Time)
	step = func(i, peerIdx int, at sim.Time) {
		if i >= len(lost) {
			c.rebuildEnd = at
			if c.rec != nil {
				c.rec.RebuildEnd(telemetry.RebuildEnd{
					T: at, OSD: failedOSD,
					Rebuilt:       c.rebuilt - rebuiltBase,
					Unrebuildable: c.unrebuildable - unrebuildableBase,
				})
			}
			return
		}
		obj := lost[i]
		// Pick the peer with the most free space (ties by rotation).
		best := peers[peerIdx%len(peers)]
		for _, p := range peers {
			if c.osds[p].Store.CapacityPages()-c.osds[p].Store.UsedPages() >
				c.osds[best].Store.CapacityPages()-c.osds[best].Store.UsedPages() {
				best = p
			}
		}
		c.rebuildObject(obj, failedOSD, best, at, func(next sim.Time) {
			step(i+1, peerIdx+1, next)
		})
	}
	step(0, 0, now)
}

// rebuildObject reconstructs one object onto dst, chunk by chunk: each
// chunk reads the stripe's surviving objects and programs the rebuilt
// data. done receives the commit time. Only an object whose committed
// copy the failed device owns is rebuilt; a move's copy in flight onto
// it is not.
func (c *Cluster) rebuildObject(obj object.ID, failedOSD, dst int, now sim.Time, done func(sim.Time)) {
	srcStore := c.osds[failedOSD].Store
	k := c.cfg.ObjectsPerFile
	file := trace.FileID(int64(obj) / int64(k))
	idx := int(int64(obj) % int64(k))
	oi := c.objIndex(file, idx)
	if int(c.owner[oi]) != failedOSD || c.failed[dst] {
		done(now)
		return
	}
	srcSlot := c.oslot[oi]
	size := srcStore.SizeAt(srcSlot)

	// Verify the stripe is reconstructible: all k−1 peers alive.
	var peers []int32
	for j := 0; j < k; j++ {
		if j == idx {
			continue
		}
		peer := c.objIndex(file, j)
		if c.failed[int(c.owner[peer])] {
			c.unrebuildable++
			done(now)
			return
		}
		peers = append(peers, peer)
	}

	target := c.osds[dst]
	tslot, err := target.Store.CreateIndexed(obj, size)
	if err != nil {
		c.rejected++
		done(now)
		return
	}
	target.Tracker.InstallAt(temperature.Slot(tslot))

	var step func(off int64, at sim.Time)
	step = func(off int64, at sim.Time) {
		if off >= size || size == 0 {
			// Commit: the object now lives on dst.
			srcStore.DeleteIndexed(srcSlot) // directory bookkeeping; the device is dead
			snap := c.osds[failedOSD].Tracker.ExportAt(temperature.Slot(srcSlot), at)
			target.Tracker.ImportAt(temperature.Slot(tslot), snap, at)
			c.relocate(oi, dst, tslot)
			c.rebuilt++
			c.rebuiltBytes += size
			if c.rec != nil {
				c.rec.RebuildObject(telemetry.RebuildObject{
					T: at, Obj: int64(obj), From: failedOSD, To: dst, Bytes: size,
				})
			}
			done(at)
			return
		}
		n := int64(migrationChunkBytes)
		if off+n > size {
			n = size - off
		}
		// Reconstruction reads on every surviving stripe member, in
		// parallel across their queues.
		readDone := at
		for _, peer := range peers {
			osd := c.osds[c.owner[peer]]
			start := at
			if osd.busyUntil > start {
				start = osd.busyUntil
			}
			lat, _ := osd.Store.ReadAt(c.oslot[peer], off, n)
			lat = osd.scaledLat(lat, at)
			end := start + netOverhead + lat
			osd.busyUntil = end
			osd.busyTime += netOverhead + lat
			if end > readDone {
				readDone = end
			}
		}
		// Program the rebuilt chunk on the destination.
		writeStart := readDone
		if target.busyUntil > writeStart {
			writeStart = target.busyUntil
		}
		writeLat, err := target.Store.WriteAt(tslot, off, n)
		if err != nil {
			c.rejected++
			target.Store.DeleteIndexed(tslot)
			done(readDone)
			return
		}
		writeLat = target.scaledLat(writeLat, at)
		writeDone := writeStart + netOverhead + writeLat
		target.busyUntil = writeDone
		target.busyTime += netOverhead + writeLat
		c.eng.At(writeDone, func(next sim.Time) { step(off+n, next) })
	}
	step(0, now)
}
