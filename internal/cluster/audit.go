package cluster

import (
	"fmt"
	"sort"

	"edm/internal/object"
)

// Audit verifies the cluster's end-of-run conservation laws and returns
// one message per violation (empty when all hold). The laws span every
// subsystem the replay touched:
//
//   - requests: every issued operation completed exactly once; the HDF
//     lock set and wait lists drained; no migration round is in flight.
//   - flash: each SSD's internal mapping invariants hold (valid +
//     invalid + free pages account for the whole geometry, free blocks
//     hold no unrelocated valid pages), and the measured GC valid ratio
//     u_r lies in [0,1).
//   - objects: each store's directory matches its flash footprint, and
//     mapped flash pages never exceed the store's allocation.
//   - remap: every object is resident on exactly one OSD, read from
//     the stores' own slots; its owner and slot rows (the remapping
//     table's view) point at that copy, and every row points at a live
//     slot holding its object.
//   - migration/rebuild: the remap table's recorded move count equals
//     committed migration moves plus rebuilt objects.
//   - placement: while all recorded moves are intra-group (HDF/CDF and
//     rebuild), the k objects of a stripe stay in k distinct groups.
//
// Audit is read-only and may be called at any quiescent point;
// check.Audit calls it at the end of every checked run (edm.WithCheck).
// Messages are sorted so reports are deterministic.
func (c *Cluster) Audit() []string {
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}

	if c.totalOps > 0 && c.completedOps != c.totalOps {
		fail("requests: %d of %d operations completed", c.completedOps, c.totalOps)
	}
	if n := len(c.locked); n != 0 {
		fail("hdf: %d object locks still held after run", n)
	}
	if n := len(c.waiters); n != 0 {
		fail("hdf: wait lists not drained: %d objects still have parked requests", n)
	}
	if c.migrating {
		fail("migration: round still in flight after run")
	}

	owners := make(map[object.ID]int)
	for _, o := range c.osds {
		if err := o.SSD.CheckInvariants(); err != nil {
			fail("flash: osd %d: %v", o.ID, err)
		}
		if err := o.Store.CheckInvariants(); err != nil {
			fail("object: osd %d: %v", o.ID, err)
		}
		if live, used := o.SSD.LivePages(), o.Store.UsedPages(); live > used {
			fail("object: osd %d: %d mapped flash pages exceed %d allocated store pages",
				o.ID, live, used)
		}
		if st := o.SSD.Stats(); st.Erases > 0 {
			if ur := st.VictimValidRatio(); ur < 0 || ur >= 1 {
				fail("flash: osd %d: measured u_r %v outside [0,1)", o.ID, ur)
			}
		}
		for _, sl := range o.Store.SortedIndices() {
			id := o.Store.IDAt(sl)
			if prev, dup := owners[id]; dup {
				fail("remap: object %d resident on both osd %d and osd %d", id, prev, o.ID)
				continue
			}
			owners[id] = o.ID
			if oi := c.indexOf(id); oi < 0 || int(c.owner[oi]) != o.ID || c.oslot[oi] != sl {
				fail("remap: object %d resident on osd %d slot %d but no row points at it", id, o.ID, sl)
			}
		}
	}

	// Every dense row points at a live slot holding its object, and the
	// home matches the placement function.
	for oi := range c.oids {
		id := c.oids[oi]
		own := int(c.owner[oi])
		if own < 0 || own >= len(c.osds) {
			fail("dense: object %d owner %d out of range [0,%d)", id, own, len(c.osds))
			continue
		}
		if held, ok := c.osds[own].Store.Holds(c.oslot[oi]); !ok || held != id {
			fail("dense: object %d not resident at its recorded slot %d on osd %d", id, c.oslot[oi], own)
		}
		if int(c.ohome[oi]) != c.objectHome(id) {
			fail("dense: object %d home table says osd %d, placement says osd %d", id, c.ohome[oi], c.objectHome(id))
		}
	}

	// Moved-object accounting: the remap table records exactly one move
	// per committed migration move or rebuilt object.
	if n := c.remap.moves; n != c.movesCommitted+uint64(c.rebuilt) {
		fail("migration: remap table recorded %d moves, cluster committed %d moves + %d rebuilds",
			n, c.movesCommitted, c.rebuilt)
	}

	// Stripe dispersion (§III.A): as long as every recorded move stayed
	// inside its placement group — true for HDF/CDF plans and rebuild —
	// the k objects of each file must still occupy k distinct groups.
	// CMT legally moves across groups, so the audit is skipped then.
	intraGroup := true
	for _, m := range c.moves {
		if !c.layout.SameGroup(m.Src, m.Dst) {
			intraGroup = false
			break
		}
	}
	if intraGroup {
		type stripeKey struct {
			file  int64
			group int
		}
		perGroup := make(map[stripeKey][]object.ID)
		for id, osd := range owners {
			key := stripeKey{int64(id) / int64(c.cfg.ObjectsPerFile), c.osds[osd].Group}
			perGroup[key] = append(perGroup[key], id)
		}
		for key, ids := range perGroup {
			if len(ids) > 1 {
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				fail("placement: stripe of file %d has %d objects %v co-located in group %d",
					key.file, len(ids), ids, key.group)
			}
		}
	}

	sort.Strings(v)
	return v
}
