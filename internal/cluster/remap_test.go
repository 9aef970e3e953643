package cluster

import (
	"fmt"
	"slices"
	"testing"

	"edm/internal/fnvx"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/rng"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// refRemap is a reference model of §III.C's remapping table, kept apart
// from the cluster's owner column: a map from each object living away
// from home to the OSD that holds it, and the table's growth counters.
type refRemap struct {
	at                                map[object.ID]int
	moves, inserts, updates, removals uint64
	peak                              int
}

// record notes that object id, placed on home, moved to dst.
func (m *refRemap) record(id object.ID, home, dst int) {
	m.moves++
	_, had := m.at[id]
	switch {
	case dst == home:
		if had {
			delete(m.at, id)
			m.removals++
		}
	case had:
		m.at[id] = dst
		m.updates++
	default:
		m.at[id] = dst
		m.inserts++
		m.peak = max(m.peak, len(m.at))
	}
}

// digest seals the model the way the standalone table sealed itself:
// the counters, then (id, OSD) for the ids its dense array held,
// [0, 1<<22) ascending, then for its overflow map's, sorted.
func (m *refRemap) digest() uint64 {
	h := fnvx.New().Int(len(m.at)).Int(m.peak).
		Uint64(m.moves).Uint64(m.inserts).Uint64(m.updates).Uint64(m.removals)
	var dense, overflow []object.ID
	for id := range m.at {
		if id >= 0 && id < 1<<22 {
			dense = append(dense, id)
		} else {
			overflow = append(overflow, id)
		}
	}
	slices.Sort(dense)
	slices.Sort(overflow)
	for _, id := range append(dense, overflow...) {
		h = h.Int64(int64(id)).Int(m.at[id])
	}
	return h.Sum()
}

// remapEntries returns the ids of the objects living away from home,
// ascending: the entries of the cluster's remapping table.
func remapEntries(c *Cluster) []object.ID {
	var ids []object.ID
	for oi, id := range c.oids {
		if c.owner[oi] != c.ohome[oi] {
			ids = append(ids, id)
		}
	}
	return ids
}

// requireMatchesModel compares the cluster's table with the model: the
// counters, every entry, and the sealed "remap table" word.
func requireMatchesModel(t *testing.T, c *Cluster, m *refRemap, step string) {
	t.Helper()
	want := remapStats{moves: m.moves, inserts: m.inserts, updates: m.updates,
		removals: m.removals, entries: len(m.at), peak: m.peak}
	if *c.remap != want {
		t.Fatalf("%s: counters %+v, model %+v", step, *c.remap, want)
	}
	for oi, id := range c.oids {
		osd, has := m.at[id]
		if away := c.owner[oi] != c.ohome[oi]; away != has || has && int(c.owner[oi]) != osd {
			t.Fatalf("%s: object %d on osd %d (home %d), model entry %d (%v)",
				step, id, c.owner[oi], c.ohome[oi], osd, has)
		}
	}
	sec := slices.Index(clusterSections, "remap table")
	if got := c.ExportState().Sections[sec]; got != m.digest() {
		t.Fatalf("%s: remap table sealed as %x, the standalone table's word is %x", step, got, m.digest())
	}
}

// handTrace declares files on both sides of 1<<22 object ids (k = 4):
// file 1<<20−1's last object is the last id a dense array of 1<<22
// slots held, file 1<<20's first is the first the overflow map did.
func handTrace() *trace.Trace {
	tr := &trace.Trace{Name: "hand", Users: 2}
	for i, f := range []trace.FileID{0, 3, 9, 1<<20 - 1, 1 << 20, 5_000_000, 1 << 40} {
		tr.Files = append(tr.Files, trace.FileInfo{ID: f, Size: 1 << 20})
		tr.Records = append(tr.Records,
			trace.Record{User: int32(i % 2), File: f, Kind: trace.OpWrite, Size: 65536})
	}
	return tr
}

// TestRemapEdgeCases walks the view through the awkward sequences of
// relocations, on the last id below 1<<22 and the first at it, and
// checks the counters against hand-counted values as well as the
// model. A built cluster's table is empty, with every object at home.
func TestRemapEdgeCases(t *testing.T) {
	type step struct{ obj, to int } // to 0 is the object's home, 1 and 2 two other OSDs
	for _, tc := range []struct {
		name  string
		steps []step
		want  remapStats
	}{
		{"override chain keeps one entry", []step{{0, 1}, {0, 2}, {0, 1}},
			remapStats{moves: 3, inserts: 1, updates: 2, entries: 1, peak: 1}},
		{"remove then lookup falls back to home", []step{{0, 1}, {0, 0}},
			remapStats{moves: 2, inserts: 1, removals: 1, peak: 1}},
		{"reinsert after removal counts a fresh insert", []step{{0, 1}, {0, 0}, {0, 2}},
			remapStats{moves: 3, inserts: 2, removals: 1, entries: 1, peak: 1}},
		{"repeated home moves only remove once", []step{{0, 0}, {0, 1}, {0, 0}, {0, 0}},
			remapStats{moves: 4, inserts: 1, removals: 1, peak: 1}},
		{"peak survives shrinking below it", []step{{0, 1}, {1, 2}, {0, 0}, {1, 0}},
			remapStats{moves: 4, inserts: 2, removals: 2, peak: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(testConfig(16), handTrace())
			if err != nil {
				t.Fatal(err)
			}
			m := &refRemap{at: map[object.ID]int{}}
			requireMatchesModel(t, c, m, "built")
			objs := []int32{c.indexOf(1<<22 - 1), c.indexOf(1 << 22)}
			for i, s := range tc.steps {
				oi := objs[s.obj]
				dst := (int(c.ohome[oi]) + s.to) % len(c.osds)
				m.record(c.oids[oi], int(c.ohome[oi]), dst)
				c.relocate(oi, dst, c.oslot[oi])
				requireMatchesModel(t, c, m, fmt.Sprintf("step %d", i))
			}
			if *c.remap != tc.want {
				t.Fatalf("counters %+v, want %+v", *c.remap, tc.want)
			}
		})
	}
}

// TestRemapViewMatchesModel drives a built cluster and the model with
// the same seeded relocations: moves away from home, re-moves, moves
// back home and moves onto the current owner, on ids below and at or
// above 1<<22.
func TestRemapViewMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		c, err := New(testConfig(16), handTrace())
		if err != nil {
			t.Fatal(err)
		}
		m := &refRemap{at: map[object.ID]int{}}
		r := rng.New(seed)
		for step := 0; step < 300; step++ {
			oi := int32(r.Intn(len(c.oids)))
			dst := r.Intn(len(c.osds))
			switch r.Intn(4) {
			case 0:
				dst = int(c.ohome[oi])
			case 1:
				dst = int(c.owner[oi])
			}
			m.record(c.oids[oi], int(c.ohome[oi]), dst)
			c.relocate(oi, dst, c.oslot[oi])
			requireMatchesModel(t, c, m, "relocation")
		}
		if m.removals == 0 || m.updates == 0 || m.peak == 0 {
			t.Fatalf("seed %d: sequence never removed, updated or grew: %+v", seed, *c.remap)
		}
	}
}

// modelRecorder feeds every committed move and rebuilt object of a run
// to the model.
type modelRecorder struct {
	telemetry.Nop
	c *Cluster
	m *refRemap
}

func (r modelRecorder) ObjectMoveCommit(e telemetry.ObjectMoveCommit) {
	r.m.record(object.ID(e.Obj), r.c.objectHome(object.ID(e.Obj)), e.Dst)
}

func (r modelRecorder) RebuildObject(e telemetry.RebuildObject) {
	r.m.record(object.ID(e.Obj), r.c.objectHome(object.ID(e.Obj)), e.To)
}

// TestRemapViewMatchesModelInRuns replays HDF runs with ids above
// 1<<22, one of them failing a device and rebuilding it, and follows
// each commit and rebuild into the model.
func TestRemapViewMatchesModelInRuns(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		tr := tinyTrace(t, 5)
		sparse := func(f trace.FileID) trace.FileID { return f*2_000_003 + 7 }
		for i := range tr.Files {
			tr.Files[i].ID = sparse(tr.Files[i].ID)
		}
		for i := range tr.Records {
			tr.Records[i].File = sparse(tr.Records[i].File)
		}
		cfg := testConfig(16)
		cfg.Migration = MigrateMidpoint
		c, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		m := &refRemap{at: map[object.ID]int{}}
		c.SetRecorder(modelRecorder{c: c, m: m})
		c.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
		if rebuild {
			c.FailOSD(3, sim.Millisecond)
			c.Rebuild(3, 2*sim.Millisecond)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.movesCommitted == 0 || rebuild && c.rebuilt == 0 {
			t.Fatalf("run committed %d moves and %d rebuilds: the model saw too little", c.movesCommitted, c.rebuilt)
		}
		requireMatchesModel(t, c, m, "end of run")
		if v := c.Audit(); len(v) != 0 {
			t.Fatalf("audit: %v", v)
		}
	}
}

// TestNewRefusesNegativeFileIDs: placement has no home for a negative
// file id, so a trace declaring one is refused rather than built.
func TestNewRefusesNegativeFileIDs(t *testing.T) {
	tr := handTrace()
	tr.Files[0].ID, tr.Records[0].File = -3, -3
	if _, err := New(testConfig(16), tr); err == nil {
		t.Fatal("New accepted a trace with a negative file id")
	}
}
