package remap

import (
	"testing"
	"testing/quick"

	"edm/internal/object"
)

func TestLookupDefaultsToHome(t *testing.T) {
	tb := New()
	if got := tb.Lookup(1, 7); got != 7 {
		t.Fatalf("Lookup = %d", got)
	}
	if tb.Contains(1) {
		t.Fatal("fresh table should contain nothing")
	}
}

func TestRecordAndLookup(t *testing.T) {
	tb := New()
	tb.Record(1, 7, 3)
	if got := tb.Lookup(1, 7); got != 3 {
		t.Fatalf("Lookup after move = %d", got)
	}
	if !tb.Contains(1) {
		t.Fatal("moved object should have an entry")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestMoveBackHomeRemovesEntry(t *testing.T) {
	tb := New()
	tb.Record(1, 7, 3)
	tb.Record(1, 7, 7)
	if tb.Contains(1) || tb.Len() != 0 {
		t.Fatal("moving home should drop the entry")
	}
	st := tb.Stats()
	if st.Removals != 1 || st.Inserts != 1 || st.Moves != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMoveHomeWithoutEntryIsCounted(t *testing.T) {
	tb := New()
	tb.Record(1, 7, 7) // degenerate: moved to its own home
	st := tb.Stats()
	if st.Moves != 1 || st.Removals != 0 || tb.Len() != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUpdateReusesEntry(t *testing.T) {
	tb := New()
	tb.Record(1, 7, 3)
	tb.Record(1, 7, 5) // second move: update, not insert
	st := tb.Stats()
	if st.Inserts != 1 || st.Updates != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if got := tb.Lookup(1, 7); got != 5 {
		t.Fatalf("Lookup = %d", got)
	}
}

func TestPeakEntries(t *testing.T) {
	tb := New()
	tb.Record(1, 0, 1)
	tb.Record(2, 0, 1)
	tb.Record(3, 0, 1)
	tb.Record(1, 0, 0) // back home
	st := tb.Stats()
	if st.PeakEntries != 3 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEntriesSorted(t *testing.T) {
	tb := New()
	for _, id := range []object.ID{9, 2, 5} {
		tb.Record(id, 0, 1)
	}
	got := tb.Entries()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("Entries = %v", got)
	}
}

// TestTableEdgeCases walks the table through the awkward move sequences
// the simulator produces over long runs — re-moving already-remapped
// objects, bouncing home and out again — and pins the full Stats
// breakdown after each script.
func TestTableEdgeCases(t *testing.T) {
	type move struct {
		id        object.ID
		home, dst int
	}
	cases := []struct {
		name   string
		script []move
		want   Stats
		lookup map[object.ID]int // expected Lookup(id, home=0) afterwards
	}{
		{
			name: "override chain keeps one entry",
			script: []move{
				{1, 0, 3}, {1, 0, 5}, {1, 0, 2}, {1, 0, 5},
			},
			want:   Stats{Moves: 4, Inserts: 1, Updates: 3, Entries: 1, PeakEntries: 1},
			lookup: map[object.ID]int{1: 5},
		},
		{
			name: "remove then lookup falls back to home",
			script: []move{
				{1, 0, 3}, {2, 0, 4}, {1, 0, 0},
			},
			want:   Stats{Moves: 3, Inserts: 2, Removals: 1, Entries: 1, PeakEntries: 2},
			lookup: map[object.ID]int{1: 0, 2: 4},
		},
		{
			name: "reinsert after removal counts a fresh insert",
			script: []move{
				{1, 0, 3}, {1, 0, 0}, {1, 0, 6},
			},
			want:   Stats{Moves: 3, Inserts: 2, Removals: 1, Entries: 1, PeakEntries: 1},
			lookup: map[object.ID]int{1: 6},
		},
		{
			name: "repeated home moves only remove once",
			script: []move{
				{1, 0, 3}, {1, 0, 0}, {1, 0, 0},
			},
			want:   Stats{Moves: 3, Inserts: 1, Removals: 1, Entries: 0, PeakEntries: 1},
			lookup: map[object.ID]int{1: 0},
		},
		{
			name: "peak survives shrinking below it",
			script: []move{
				{1, 0, 1}, {2, 0, 1}, {3, 0, 1}, {2, 0, 0}, {3, 0, 0},
			},
			want:   Stats{Moves: 5, Inserts: 3, Removals: 2, Entries: 1, PeakEntries: 3},
			lookup: map[object.ID]int{1: 1, 2: 0, 3: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New()
			for _, m := range tc.script {
				tb.Record(m.id, m.home, m.dst)
			}
			if got := tb.Stats(); got != tc.want {
				t.Fatalf("stats = %+v, want %+v", got, tc.want)
			}
			for id, want := range tc.lookup {
				if got := tb.Lookup(id, 0); got != want {
					t.Fatalf("Lookup(%d) = %d, want %d", id, got, want)
				}
				if tb.Contains(id) != (want != 0) {
					t.Fatalf("Contains(%d) inconsistent with Lookup", id)
				}
			}
		})
	}
}

// Property: after any sequence of moves, Lookup returns the last
// non-home destination, or home if the object returned home.
func TestPropertyLookupTracksLastMove(t *testing.T) {
	f := func(moves []uint8) bool {
		tb := New()
		const home = 0
		last := map[object.ID]int{}
		for _, m := range moves {
			id := object.ID(m % 8)
			dst := int(m/8) % 4
			tb.Record(id, home, dst)
			if dst == home {
				delete(last, id)
			} else {
				last[id] = dst
			}
		}
		for id := object.ID(0); id < 8; id++ {
			want, moved := last[id]
			if !moved {
				want = home
			}
			if tb.Lookup(id, home) != want {
				return false
			}
			if tb.Contains(id) != moved {
				return false
			}
		}
		return tb.Len() == len(last)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
