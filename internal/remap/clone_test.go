package remap_test

import (
	"context"
	"maps"
	"testing"

	"edm/internal/cluster"
	"edm/internal/object"
	"edm/internal/sim"
)

// fork returns a copy of a cluster whose run has finished.
func fork(t *testing.T, c *cluster.Cluster) *cluster.Cluster {
	t.Helper()
	f, err := c.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCloneIsIndependent: a fork carries its original's table, and the
// two change apart after it. A failure and rebuild of the device
// holding an entry, run on the fork, leave the original's table as it
// was; the same failure on the original brings both to one table.
func TestCloneIsIndependent(t *testing.T) {
	huge, far := object.ID(1<<22+7), object.ID(1<<42+1)
	c, _ := replay(t, step{3, 1}, step{huge, 2}, step{3, 0}, step{9, 1}, step{far, 3})
	f := fork(t, c)
	before, where := remapWord(t, c), lookup(c)
	if remapWord(t, f) != before || !maps.Equal(lookup(f), where) {
		t.Fatal("the fork's table differs from its original's")
	}
	failed := where[huge].osd
	mutate := func(x *cluster.Cluster) {
		t.Helper()
		now := x.Engine().Now()
		x.FailOSD(failed, now+sim.Millisecond)
		x.Rebuild(failed, now+2*sim.Millisecond)
		res, err := x.ContinueContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.RebuiltObjects == 0 {
			t.Fatalf("osd %d failed but nothing was rebuilt", failed)
		}
		if v := x.Audit(); len(v) > 0 {
			t.Fatalf("audit: %v", v)
		}
	}
	mutate(f)
	if remapWord(t, f) == before {
		t.Fatal("the rebuild left the fork's table as it was")
	}
	if remapWord(t, c) != before || !maps.Equal(lookup(c), where) {
		t.Fatal("changing the fork changed the original")
	}
	mutate(c)
	if remapWord(t, c) != remapWord(t, f) || !maps.Equal(lookup(c), lookup(f)) {
		t.Fatal("fork and original diverged under the same changes")
	}
}

// TestFieldsAreClassified: every part of the table, each entry and each
// growth counter, is sealed and carried by a fork. Histories that end
// with the same entries but count their growth differently, and one
// that counts the same growth into another entry, seal to distinct
// words, each the standalone table's; a fork of each run seals the
// same word as its original.
func TestFieldsAreClassified(t *testing.T) {
	one := map[object.ID]int{1: 1}
	histories := []struct {
		steps []step
		want  stats
		away  map[object.ID]int
	}{
		{[]step{{1, 1}}, stats{moves: 1, inserts: 1, entries: 1, peak: 1}, one},
		{[]step{{2, 1}}, stats{moves: 1, inserts: 1, entries: 1, peak: 1}, map[object.ID]int{2: 1}},
		{[]step{{1, 2}, {1, 1}}, stats{moves: 2, inserts: 1, updates: 1, entries: 1, peak: 1}, one},
		{[]step{{1, 1}, {1, 0}, {1, 1}}, stats{moves: 3, inserts: 2, removals: 1, entries: 1, peak: 1}, one},
		{[]step{{2, 1}, {1, 1}, {2, 0}}, stats{moves: 3, inserts: 2, removals: 1, entries: 1, peak: 2}, one},
	}
	seen := map[uint64]int{}
	for i, h := range histories {
		c, res := replay(t, h.steps...)
		requireTable(t, c, res, h.want, h.away)
		w := remapWord(t, c)
		if j, dup := seen[w]; dup {
			t.Fatalf("histories %d and %d seal to one word", j, i)
		}
		seen[w] = i
		if got := remapWord(t, fork(t, c)); got != w {
			t.Fatalf("history %d: the fork seals %x, its original %x", i, got, w)
		}
	}
}
