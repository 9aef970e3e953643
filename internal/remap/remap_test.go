// Package remap_test pins §III.C's remapping table through the
// cluster's exported API. The cluster keeps the table as a view of its
// owner column: an object has an entry while it lives away from its
// home OSD. A scripted planner drives the moves, one per planning
// round, and each test reads the table back from a planner snapshot
// (where an object lives, and ObjectInfo.Remapped), the Result, the
// audit and the sealed "remap table" section, whose word must stay the
// one the standalone table of frame version 3 hashed.
package remap_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"edm/internal/cluster"
	"edm/internal/fnvx"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/placement"
	"edm/internal/sim"
	"edm/internal/trace"
)

// handFiles are the hand trace's files. With k = 4, file f holds the
// objects 4f to 4f+3, so files 1<<20+1 and 1<<40 hold ids at and far
// above 1<<22, where the standalone table's dense array ended.
var handFiles = []trace.FileID{0, 1, 2, 1<<20 + 1, 1 << 40}

// handTrace writes each file in turn from two users, long enough for
// every script below to finish before the last operation completes.
func handTrace() *trace.Trace {
	tr := &trace.Trace{Name: "remap", Users: 2}
	for _, f := range handFiles {
		tr.Files = append(tr.Files, trace.FileInfo{ID: f, Size: 1 << 20})
	}
	for i := 0; i < 1000; i++ {
		tr.Records = append(tr.Records, trace.Record{
			File: handFiles[i%len(handFiles)], Offset: int64(i%16) << 16, Size: 64 << 10,
			User: int32(i % 2), Kind: trace.OpWrite,
		})
	}
	return tr
}

// config is a 16-OSD cluster in four groups of four that consults its
// planner every millisecond of virtual time.
func config() cluster.Config {
	return cluster.Config{
		OSDs: 16, Groups: 4, ObjectsPerFile: 4, WarmupDisabled: true, Seed: 1,
		Migration: cluster.MigratePeriodic, TemperatureInterval: sim.Millisecond,
	}
}

// step moves object obj to position to of its home's placement group,
// counted from the home: 0 is the home itself, 1 to 3 its group peers.
type step struct {
	obj object.ID
	to  int
}

// peer returns the OSD at position to of home's group.
func peer(l placement.Layout, home, to int) int {
	g := l.GroupMembers(l.GroupOf(home))
	return g[(slices.Index(g, home)+to)%len(g)]
}

// script is a planner that plans one step per planning round. A step
// onto the OSD that already holds the object plans a move the data
// mover skips.
type script struct {
	layout placement.Layout
	steps  []step
	next   int
}

func (*script) Name() string       { return "script" }
func (*script) BlocksAccess() bool { return false }

func (p *script) Plan(s *migration.Snapshot) []migration.Move {
	if p.next == len(p.steps) {
		return nil
	}
	st := p.steps[p.next]
	p.next++
	for _, d := range s.Devices {
		for _, o := range d.Objects {
			if o.ID == st.obj {
				return []migration.Move{{Obj: o.ID, Src: d.OSD,
					Dst: peer(p.layout, o.Home, st.to), Pages: o.Pages, Bytes: o.Bytes}}
			}
		}
	}
	return nil
}

// replay runs the hand trace through steps and audits the run.
func replay(t *testing.T, steps ...step) (*cluster.Cluster, *cluster.Result) {
	t.Helper()
	c, err := cluster.New(config(), handTrace())
	if err != nil {
		t.Fatal(err)
	}
	p := &script{layout: c.Layout(), steps: steps}
	c.SetPlanner(p)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.next < len(steps) {
		t.Fatalf("the replay ended after %d of %d steps", p.next, len(steps))
	}
	if v := c.Audit(); len(v) > 0 {
		t.Fatalf("audit: %v", v)
	}
	return c, res
}

// placed is where a snapshot finds an object.
type placed struct {
	osd, home int
	remapped  bool
}

// lookup reads every object's placement from a planner snapshot.
func lookup(c *cluster.Cluster) map[object.ID]placed {
	m := map[object.ID]placed{}
	for _, d := range c.Snapshot(c.Engine().Now()).Devices {
		for _, o := range d.Objects {
			m[o.ID] = placed{d.OSD, o.Home, o.Remapped}
		}
	}
	return m
}

// stats is the table's growth as the standalone table counted it.
type stats struct {
	moves, inserts, updates, removals uint64
	entries, peak                     int
}

// sealed is the word the standalone table hashed: its counters, then
// (id, OSD) for each entry, first the ids in [0, 1<<22) ascending (its
// dense array), then the rest ascending (its overflow map, sorted).
func sealed(st stats, entries map[object.ID]int) uint64 {
	h := fnvx.New().Int(st.entries).Int(st.peak).
		Uint64(st.moves).Uint64(st.inserts).Uint64(st.updates).Uint64(st.removals)
	var dense, overflow []object.ID
	for id := range entries {
		if id >= 0 && id < 1<<22 {
			dense = append(dense, id)
		} else {
			overflow = append(overflow, id)
		}
	}
	slices.Sort(dense)
	slices.Sort(overflow)
	for _, id := range append(dense, overflow...) {
		h = h.Int64(int64(id)).Int(entries[id])
	}
	return h.Sum()
}

// remapWord returns the "remap table" section of c's sealed state,
// found by the name State.Diff gives it.
func remapWord(t *testing.T, c *cluster.Cluster) uint64 {
	t.Helper()
	st := c.ExportState()
	for i, w := range st.Sections {
		other := &cluster.State{Fired: st.Fired, Now: st.Now, Sections: slices.Clone(st.Sections)}
		other.Sections[i]++
		if d := st.Diff(other); len(d) == 1 && strings.HasPrefix(d[0], "remap table:") {
			return w
		}
	}
	t.Fatal("the sealed state has no remap table section")
	return 0
}

// requireTable checks c's table after a run: each object of away lives
// at its position of its home group and has an entry, every other
// object is at home without one, and the Result and the sealed word
// carry st.
func requireTable(t *testing.T, c *cluster.Cluster, res *cluster.Result, st stats, away map[object.ID]int) {
	t.Helper()
	entries := map[object.ID]int{}
	for id, p := range lookup(c) {
		to := away[id]
		if want := peer(c.Layout(), p.home, to); p.osd != want || p.remapped != (to != 0) {
			t.Fatalf("object %d on osd %d (home %d, remapped %v), want osd %d",
				id, p.osd, p.home, p.remapped, want)
		}
		if to != 0 {
			entries[id] = p.osd
		}
	}
	if len(entries) != len(away) {
		t.Fatalf("%d of the %d objects expected away were found", len(entries), len(away))
	}
	if res.RemapEntries != st.entries || res.RemapPeak != st.peak {
		t.Fatalf("Result has %d entries at peak %d, want %d at %d",
			res.RemapEntries, res.RemapPeak, st.entries, st.peak)
	}
	if got, want := remapWord(t, c), sealed(st, entries); got != want {
		t.Fatalf("remap table sealed as %x; %+v with entries %v seals as %x", got, st, entries, want)
	}
}

func TestLookupDefaultsToHome(t *testing.T) {
	c, res := replay(t)
	for id, p := range lookup(c) {
		if p.osd != p.home || p.remapped {
			t.Fatalf("object %d on osd %d, home %d, remapped %v", id, p.osd, p.home, p.remapped)
		}
	}
	requireTable(t, c, res, stats{}, nil)
}

func TestRecordAndLookup(t *testing.T) {
	c, res := replay(t, step{1, 3})
	requireTable(t, c, res, stats{moves: 1, inserts: 1, entries: 1, peak: 1}, map[object.ID]int{1: 3})
}

func TestMoveBackHomeRemovesEntry(t *testing.T) {
	c, res := replay(t, step{1, 3}, step{1, 0})
	requireTable(t, c, res, stats{moves: 2, inserts: 1, removals: 1, peak: 1}, nil)
}

func TestUpdateReusesEntry(t *testing.T) {
	c, res := replay(t, step{1, 3}, step{1, 2}) // second move: update, not insert
	requireTable(t, c, res, stats{moves: 2, inserts: 1, updates: 1, entries: 1, peak: 1},
		map[object.ID]int{1: 2})
}

func TestPeakEntries(t *testing.T) {
	c, res := replay(t, step{1, 1}, step{2, 1}, step{3, 1}, step{1, 0}) // the last back home
	requireTable(t, c, res, stats{moves: 4, inserts: 3, removals: 1, entries: 2, peak: 3},
		map[object.ID]int{2: 1, 3: 1})
}

// TestEntriesSorted: the seal hashes the entries in ascending id order,
// whatever order the objects moved in.
func TestEntriesSorted(t *testing.T) {
	c, res := replay(t, step{9, 1}, step{2, 1}, step{5, 1})
	requireTable(t, c, res, stats{moves: 3, inserts: 3, entries: 3, peak: 3},
		map[object.ID]int{2: 1, 5: 1, 9: 1})
	l, at := lookup(c), c.Layout()
	h := fnvx.New().Int(3).Int(3).Uint64(3).Uint64(3).Uint64(0).Uint64(0)
	for _, id := range []object.ID{9, 2, 5} {
		h = h.Int64(int64(id)).Int(peer(at, l[id].home, 1))
	}
	if remapWord(t, c) == h.Sum() {
		t.Fatal("the seal hashed the entries in move order")
	}
}

// TestTableEdgeCases walks the table through the awkward move sequences
// long runs produce — re-moving remapped objects, bouncing home and
// out again — and pins the full count after each script.
func TestTableEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		script []step
		want   stats
		away   map[object.ID]int
	}{
		{
			name:   "override chain keeps one entry",
			script: []step{{1, 3}, {1, 1}, {1, 2}, {1, 1}},
			want:   stats{moves: 4, inserts: 1, updates: 3, entries: 1, peak: 1},
			away:   map[object.ID]int{1: 1},
		},
		{
			name:   "remove then lookup falls back to home",
			script: []step{{1, 3}, {2, 2}, {1, 0}},
			want:   stats{moves: 3, inserts: 2, removals: 1, entries: 1, peak: 2},
			away:   map[object.ID]int{2: 2},
		},
		{
			name:   "reinsert after removal counts a fresh insert",
			script: []step{{1, 3}, {1, 0}, {1, 2}},
			want:   stats{moves: 3, inserts: 2, removals: 1, entries: 1, peak: 1},
			away:   map[object.ID]int{1: 2},
		},
		{
			// The second move home finds the object home: the mover
			// skips it and the table counts nothing.
			name:   "repeated home moves only remove once",
			script: []step{{1, 3}, {1, 0}, {1, 0}},
			want:   stats{moves: 2, inserts: 1, removals: 1, peak: 1},
		},
		{
			name:   "peak survives shrinking below it",
			script: []step{{1, 1}, {2, 1}, {3, 1}, {2, 0}, {3, 0}},
			want:   stats{moves: 5, inserts: 3, removals: 2, entries: 1, peak: 3},
			away:   map[object.ID]int{1: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, res := replay(t, tc.script...)
			requireTable(t, c, res, tc.want, tc.away)
		})
	}
}

// Property: after any sequence of moves, each object lives at its last
// destination and has an entry exactly when that is not its home.
func TestPropertyLookupTracksLastMove(t *testing.T) {
	f := func(moves []uint8) bool {
		var steps []step
		away := map[object.ID]int{}
		for _, m := range moves {
			s := step{obj: object.ID(m % 8), to: int(m/8) % 4}
			if steps = append(steps, s); s.to == 0 {
				delete(away, s.obj)
			} else {
				away[s.obj] = s.to
			}
		}
		c, res := replay(t, steps...)
		l := lookup(c)
		for id, p := range l {
			if p.osd != peer(c.Layout(), p.home, away[id]) || p.remapped != (away[id] != 0) {
				return false
			}
		}
		return len(l) == 4*len(handFiles) && res.RemapEntries == len(away)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
