package remap_test

import (
	"testing"

	"edm/internal/cluster"
	"edm/internal/object"
	"edm/internal/trace"
)

// TestOverflowIDs: objects with ids at and far above 1<<22, where the
// standalone table's dense array ended and its overflow map began, keep
// entries alongside a dense one, seal after it, and follow the same
// move-home removal rule. A negative id never reaches the table: a
// trace declaring a negative file id is refused when the cluster is
// built.
func TestOverflowIDs(t *testing.T) {
	huge, far, dense := object.ID(1<<22+7), object.ID(1<<42+1), object.ID(10)
	out := []step{{huge, 3}, {far, 1}, {dense, 2}}
	c, res := replay(t, out...)
	requireTable(t, c, res, stats{moves: 3, inserts: 3, entries: 3, peak: 3},
		map[object.ID]int{huge: 3, far: 1, dense: 2})

	// Overflow entries follow the same move-home removal rule.
	c, res = replay(t, append(out, step{huge, 0}, step{far, 0})...)
	requireTable(t, c, res, stats{moves: 5, inserts: 3, removals: 2, entries: 1, peak: 3},
		map[object.ID]int{dense: 2})

	tr := handTrace()
	tr.Files = append(tr.Files, trace.FileInfo{ID: -3, Size: 1 << 20})
	if _, err := cluster.New(config(), tr); err == nil {
		t.Fatal("a trace declaring file -3 was built")
	}
}
