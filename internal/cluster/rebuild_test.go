package cluster

import (
	"strings"
	"testing"

	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/sim"
)

func TestRebuildRestoresFullService(t *testing.T) {
	tr := tinyTrace(t, 40)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	lostObjects := cl.OSD(3).Store.Len()
	if lostObjects == 0 {
		t.Skip("no objects on OSD 3")
	}
	cl.FailOSD(3, sim.Millisecond)
	cl.Rebuild(3, 2*sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tr.Records) || res.LostOps != 0 {
		t.Fatalf("run incomplete: %+v", res)
	}
	if res.RebuiltObjects != lostObjects {
		t.Fatalf("rebuilt %d of %d objects", res.RebuiltObjects, lostObjects)
	}
	if res.UnrebuildableObjects != 0 {
		t.Fatalf("unrebuildable: %d", res.UnrebuildableObjects)
	}
	if res.RebuildEnd <= res.RebuildStart {
		t.Fatalf("rebuild window degenerate: %v..%v", res.RebuildStart, res.RebuildEnd)
	}
	// Every rebuilt object lives on a surviving member of group 3 and
	// is reachable through the remap table.
	if cl.OSD(3).Store.Len() != 0 {
		t.Fatalf("failed device still lists %d objects", cl.OSD(3).Store.Len())
	}
	for _, id := range remapEntries(cl) {
		loc := cl.locate(id)
		if loc == 3 {
			t.Fatalf("object %d still routed to the failed device", id)
		}
		if _, ok := storeSlot(cl.OSD(loc).Store, id); !ok {
			t.Fatalf("object %d missing at %d", id, loc)
		}
		if cl.layout.GroupOf(loc) != cl.layout.GroupOf(3) && cl.objectHome(id) != loc {
			// Remap entries created by the rebuild must stay in the
			// failed device's group.
			if cl.layout.GroupOf(cl.objectHome(id)) == cl.layout.GroupOf(3) {
				t.Fatalf("object %d rebuilt outside group: OSD %d", id, loc)
			}
		}
	}
}

func TestRebuildStopsDegradedReads(t *testing.T) {
	// With failure and rebuild both scheduled before any traffic, all
	// of the trace runs after recovery completes for rebuilt objects —
	// degraded service should taper off rather than persist.
	run := func(rebuild bool) *Result {
		tr := tinyTrace(t, 41)
		cl, err := New(testConfig(16), tr)
		if err != nil {
			t.Fatal(err)
		}
		cl.FailOSD(5, sim.Millisecond)
		if rebuild {
			cl.Rebuild(5, 2*sim.Millisecond)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	without := run(false)
	with := run(true)
	if with.DegradedOps >= without.DegradedOps {
		t.Fatalf("rebuild did not reduce degraded service: %d vs %d",
			with.DegradedOps, without.DegradedOps)
	}
	if with.RebuiltObjects == 0 {
		t.Fatal("nothing rebuilt")
	}
}

func TestRebuildSkipsDoublyFailedStripes(t *testing.T) {
	tr := tinyTrace(t, 42)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-group double failure: stripes spanning both devices cannot
	// be reconstructed.
	cl.FailOSD(3, sim.Millisecond)
	cl.FailOSD(4, sim.Millisecond)
	cl.Rebuild(3, 2*sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrebuildableObjects == 0 {
		t.Fatal("cross-group double failure should leave unrebuildable objects")
	}
	if res.RebuiltObjects == 0 {
		t.Fatal("stripes not touching OSD 4 should still rebuild")
	}
}

func TestRebuildWithoutFailureIsNoop(t *testing.T) {
	tr := tinyTrace(t, 43)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.Rebuild(3, sim.Millisecond)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuiltObjects != 0 {
		t.Fatalf("rebuilt %d objects on a healthy cluster", res.RebuiltObjects)
	}
}

// TestMoveOfRebuildCopyInFlightIsSkipped plans a move of an object whose
// rebuilt copy is still being written on its target. The target's store
// already lists the copy, but the owner column still names the failed
// device, so the move must be skipped, the rebuild must commit the
// object on its target, and the audit must stay clean.
func TestMoveOfRebuildCopyInFlightIsSkipped(t *testing.T) {
	tr := tinyTrace(t, 40)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	lostObjects := cl.OSD(3).Store.Len()
	cl.FailOSD(3, sim.Millisecond)
	cl.Rebuild(3, 2*sim.Millisecond)
	planner := &stubPlanner{}
	cl.planner = planner
	var obj object.ID
	target := -1
	// Fires after the rebuild's start at the same instant, so its first
	// copy with data to write is in flight.
	cl.eng.At(2*sim.Millisecond, func(now sim.Time) {
		for _, o := range cl.osds {
			for _, sl := range o.Store.SortedIndices() {
				if id := o.Store.IDAt(sl); o.ID != 3 && cl.locate(id) == 3 {
					obj, target = id, o.ID
					for _, p := range cl.layout.GroupMembers(o.Group) {
						if p != o.ID && !cl.failed[p] {
							planner.moves = []migration.Move{{Obj: id, Src: o.ID, Dst: p,
								Pages: o.Store.PagesAt(sl), Bytes: o.Store.SizeAt(sl)}}
							break
						}
					}
				}
			}
		}
		cl.maybeMigrate(now, true)
	})
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(planner.moves) == 0 {
		t.Fatal("no rebuilt copy was in flight when the move was planned")
	}
	if cl.movesCommitted != 0 {
		t.Fatalf("the move of object %d off its in-flight copy on osd %d committed", obj, target)
	}
	if res.RebuiltObjects != lostObjects {
		t.Fatalf("rebuilt %d of %d objects", res.RebuiltObjects, lostObjects)
	}
	oi := cl.indexOf(obj)
	if slot, ok := storeSlot(cl.OSD(target).Store, obj); !ok || int(cl.owner[oi]) != target || cl.oslot[oi] != slot {
		t.Fatalf("object %d: rows say osd %d slot %d, want the rebuilt copy on osd %d slot %d (held %v)",
			obj, cl.owner[oi], cl.oslot[oi], target, slot, ok)
	}
	if v := cl.Audit(); len(v) != 0 {
		t.Fatalf("audit violations:\n%s", strings.Join(v, "\n"))
	}
}
