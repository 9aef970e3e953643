package cluster

import (
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
)

// maybeMigrate runs the installed planner. With force the RSD gate is
// bypassed (midpoint shuffle); otherwise the planner applies its own
// trigger condition. A round already in flight suppresses new rounds.
func (c *Cluster) maybeMigrate(now sim.Time, force bool) {
	if c.planner == nil || c.migrating {
		return
	}
	// Periodic planning reuses the cluster's snapshot buffers: an idle
	// wear tick (trigger not fired) then allocates nothing.
	c.snapObjs = c.fillSnapshot(&c.planSnap, c.snapDevs[:0], c.snapObjs[:0], now)
	c.snapDevs = c.planSnap.Devices
	moves := c.planWith(&c.planSnap, force)
	if len(moves) == 0 {
		return
	}
	c.migrations++
	c.migrating = true
	c.migStart = now
	for _, o := range c.osds {
		o.busyAtMig = o.busyTime
	}
	c.moves = append(c.moves, moves...)
	if c.rec != nil {
		var bytes int64
		for _, m := range moves {
			bytes += m.Bytes
		}
		c.rec.MigrationPlan(telemetry.MigrationPlan{
			T: now, Policy: c.planner.Name(), Round: c.migrations,
			Moves: len(moves), Bytes: bytes,
		})
	}
	c.executeMoves(moves, now)
}

// planWith invokes the planner, honouring force for any planner that
// implements migration.Forcible (HDF, CDF, CMT and anything wrapping
// them — the paper's midpoint-shuffle methodology needs the gate
// bypassed regardless of how the planner is decorated).
func (c *Cluster) planWith(snap *migration.Snapshot, force bool) []migration.Move {
	if f, ok := c.planner.(migration.Forcible); ok && force && !f.Forced() {
		f.SetForce(true)
		defer f.SetForce(false)
	}
	return c.planner.Plan(snap)
}

// Snapshot captures the cluster state the planners consume.
func (c *Cluster) Snapshot(now sim.Time) *migration.Snapshot {
	snap := &migration.Snapshot{}
	c.fillSnapshot(snap, nil, nil, now)
	return snap
}

// fillSnapshot populates snap from the live cluster, building the
// device and object lists in the provided buffers (nil for fresh
// allocations). It returns the object buffer — snap.Devices holds
// subslices of it — so callers can recycle it. Objects are enumerated
// in ascending-id order per device; the planners sum temperatures over
// that order, so it is part of the determinism contract.
func (c *Cluster) fillSnapshot(snap *migration.Snapshot, devs []migration.DeviceState, objs []migration.ObjectInfo, now sim.Time) []migration.ObjectInfo {
	*snap = migration.Snapshot{
		Now:      now,
		Model:    c.wmodel,
		Layout:   c.layout,
		Recorder: c.rec,
	}
	total := 0
	for _, o := range c.osds {
		if !c.failed[o.ID] {
			total += o.Store.Len()
		}
	}
	if cap(objs) < total {
		objs = make([]migration.ObjectInfo, 0, total)
	}
	for _, o := range c.osds {
		if c.failed[o.ID] {
			continue // failed devices neither shed nor receive objects
		}
		st := o.SSD.Stats()
		dev := migration.DeviceState{
			OSD:           o.ID,
			Group:         o.Group,
			WinWritePages: float64(st.HostPageWrites),
			Utilization:   o.SSD.Utilization(),
			CapacityPages: o.SSD.TotalPages(),
			UsedPages:     o.SSD.LivePages(),
			LoadFactor:    o.LoadFactor(),
		}
		start := len(objs)
		for _, sl := range o.Store.SortedIndices() {
			id := o.Store.IDAt(sl)
			ts := o.Tracker.QueryAt(temperature.Slot(sl), now)
			oi := c.indexOf(id)
			objs = append(objs, migration.ObjectInfo{
				ID:            id,
				Index:         oi,
				Home:          int(c.ohome[oi]),
				Pages:         o.Store.PagesAt(sl),
				Bytes:         o.Store.SizeAt(sl),
				Remapped:      c.owner[oi] != c.ohome[oi],
				WriteTemp:     ts.WriteTemp,
				TotalTemp:     ts.TotalTemp,
				WinWritePages: ts.WinWrites,
				CumAccesses:   ts.CumWrites + ts.CumReads,
			})
		}
		dev.Objects = objs[start:len(objs):len(objs)]
		devs = append(devs, dev)
	}
	snap.Devices = devs
	return objs
}

// executeMoves runs the data mover: the moves of each source OSD form a
// serial chain (one object in flight per source), and chains for
// different sources proceed in parallel (§IV: the data mover shuffles
// objects "using multi-threads"). Each move reads the object on the
// source, writes it on the destination, trims the source copy, and
// updates the remapping table. Under an HDF plan the object is locked —
// requests block — from round start until its destination write
// completes (§V.D).
func (c *Cluster) executeMoves(moves []migration.Move, now sim.Time) {
	blocks := c.planner.BlocksAccess()
	bySource := make(map[int][]migration.Move)
	var order []int
	for _, m := range moves {
		if _, ok := bySource[m.Src]; !ok {
			order = append(order, m.Src)
		}
		bySource[m.Src] = append(bySource[m.Src], m)
		if blocks {
			c.locked[m.Obj] = true
		}
	}

	remaining := len(order)
	for _, src := range order {
		chain := bySource[src]
		c.runChain(chain, 0, now, blocks, func() {
			remaining--
			if remaining == 0 {
				c.migrating = false
				c.migEnd = c.eng.Now()
				if c.rec != nil {
					c.rec.MigrationRoundEnd(telemetry.MigrationRoundEnd{
						T: c.migEnd, Round: c.migrations, Moved: len(moves),
					})
				}
				// A fresh balancing window starts after the round.
				for _, o := range c.osds {
					o.Tracker.ResetWindow()
				}
			}
		})
	}
}

// runChain executes chain[i:] serially, then calls done.
func (c *Cluster) runChain(chain []migration.Move, i int, now sim.Time, blocks bool, done func()) {
	if i >= len(chain) {
		done()
		return
	}
	c.moveObject(chain[i], now, blocks, func(at sim.Time) {
		c.runChain(chain, i+1, at, blocks, done)
	})
}

// migrationChunkBytes is the transfer granularity of the data mover.
// Chunked transfers let foreground requests interleave with a large
// object's relocation in the OSD queues — CDF's "impact only comes from
// the competition of disk bandwidth" (§V.D) — instead of a multi-MB
// head-of-line block.
const migrationChunkBytes = 256 << 10

// mover copies one object chunk by chunk through the source and
// destination queues. It is the scheduled Action for every chunk hop, so
// a multi-MB move costs one mover allocation rather than one closure and
// one event allocation per 256KB chunk.
type mover struct {
	c       *Cluster
	m       migration.Move
	size    int64
	off     int64
	srcSlot object.Index
	dstSlot object.Index
	blocks  bool
	done    func(sim.Time)
}

// Fire implements sim.Action: copy the next chunk (or commit).
func (mv *mover) Fire(at sim.Time) { mv.step(at) }

func (mv *mover) abort(at sim.Time) {
	if mv.blocks {
		mv.c.unlockObject(mv.m.Obj, at)
	}
	mv.done(at)
}

// step copies the chunk at mv.off and schedules the next hop at the
// chunk's completion time.
func (mv *mover) step(at sim.Time) {
	c := mv.c
	if mv.off >= mv.size || mv.size == 0 {
		c.commitMove(mv, at)
		return
	}
	src := c.osds[mv.m.Src]
	dst := c.osds[mv.m.Dst]
	n := int64(migrationChunkBytes)
	if mv.off+n > mv.size {
		n = mv.size - mv.off
	}
	// Chunk read through the source queue.
	readStart := at
	if src.busyUntil > readStart {
		readStart = src.busyUntil
	}
	readLat, _ := src.Store.ReadAt(mv.srcSlot, mv.off, n)
	readLat = src.scaledLat(readLat, at)
	readDone := readStart + netOverhead + readLat
	src.busyUntil = readDone
	src.busyTime += netOverhead + readLat

	// Chunk write through the destination queue.
	writeStart := readDone
	if dst.busyUntil > writeStart {
		writeStart = dst.busyUntil
	}
	writeLat, err := dst.Store.WriteAt(mv.dstSlot, mv.off, n)
	if err != nil {
		c.rejected++
		dst.Store.DeleteIndexed(mv.dstSlot)
		mv.abort(readDone)
		return
	}
	writeLat = dst.scaledLat(writeLat, at)
	writeDone := writeStart + netOverhead + writeLat
	dst.busyUntil = writeDone
	dst.busyTime += netOverhead + writeLat

	mv.off += n
	c.eng.AtAction(writeDone, mv)
}

// moveObject performs one migration action, calling done with its
// completion time. The object is copied in chunks: each chunk is read
// through the source OSD's queue, then written through the destination's
// queue, so migration competes with foreground traffic chunk by chunk.
// The owner column decides whether the move runs: only while the source
// owns the object's committed copy and the destination is another
// device, so a copy still in flight (a rebuild's) is never moved.
func (c *Cluster) moveObject(m migration.Move, now sim.Time, blocks bool, done func(sim.Time)) {
	src := c.osds[m.Src]
	dst := c.osds[m.Dst]

	mv := &mover{c: c, m: m, blocks: blocks, done: done}

	oi := c.indexOf(m.Obj)
	if oi < 0 || int(c.owner[oi]) != m.Src || m.Dst == m.Src || c.failed[m.Src] || c.failed[m.Dst] {
		// The object moved or vanished since planning, or a device
		// failed in the meantime; skip.
		mv.abort(now)
		return
	}
	mv.srcSlot = c.oslot[oi]
	size := src.Store.SizeAt(mv.srcSlot)
	mv.size = size
	dstSlot, err := dst.Store.CreateIndexed(m.Obj, size)
	if err != nil {
		// Destination has no room; abandon the move (the source copy
		// remains authoritative).
		c.rejected++
		mv.abort(now)
		return
	}
	mv.dstSlot = dstSlot
	// Clear the destination tracker row up front so a recycled slot
	// carries no old counters while the copy runs.
	dst.Tracker.InstallAt(temperature.Slot(dstSlot))
	if c.rec != nil {
		c.rec.ObjectMoveStart(telemetry.ObjectMoveStart{
			T: now, Obj: int64(m.Obj), Src: m.Src, Dst: m.Dst,
			Bytes: size, Locks: blocks,
		})
	}
	mv.step(now)
}

// commitMove finalises a completed copy: trim the source copy, carry the
// temperature history over, update the remapping table, and release the
// HDF lock.
func (c *Cluster) commitMove(mv *mover, at sim.Time) {
	m := mv.m
	src := c.osds[m.Src]
	dst := c.osds[m.Dst]

	src.Store.DeleteIndexed(mv.srcSlot)
	snap := src.Tracker.ExportAt(temperature.Slot(mv.srcSlot), at)
	dst.Tracker.ImportAt(temperature.Slot(mv.dstSlot), snap, at)
	c.relocate(c.indexOf(m.Obj), m.Dst, mv.dstSlot)
	c.movesCommitted++
	if c.rec != nil {
		c.rec.ObjectMoveCommit(telemetry.ObjectMoveCommit{
			T: at, Obj: int64(m.Obj), Src: m.Src, Dst: m.Dst, Bytes: mv.size,
		})
	}
	if mv.blocks {
		c.unlockObject(m.Obj, at)
	}
	c.movedPages += pagesOf(mv.size, src.Store.PageSize())
	c.movedBytes += mv.size
	mv.done(at)
}
