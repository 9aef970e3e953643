package object

import (
	"sort"
	"testing"
)

// TestIndexStableAcrossOtherDeletes pins the handle contract: an
// object's Index never changes while it lives, regardless of churn
// around it.
func TestIndexStableAcrossOtherDeletes(t *testing.T) {
	st := newStore(t)
	idx := make([]Index, 8)
	for i := range idx {
		idx[i] = mustCreate(t, st, ID(i), 4096)
	}
	idx3, ok := slotOf(st, 3)
	if !ok || idx3 != idx[3] {
		t.Fatalf("object 3 at slot %d (ok=%v), CreateIndexed returned %d", idx3, ok, idx[3])
	}
	for _, id := range []ID{0, 2, 6} {
		st.DeleteIndexed(idx[id])
	}
	mustCreate(t, st, 100, 4096)
	if now, ok := slotOf(st, 3); !ok || now != idx3 {
		t.Fatalf("object 3 index moved from %d to %d (ok=%v)", idx3, now, ok)
	}
	if st.IDAt(idx3) != 3 {
		t.Fatalf("IDAt(%d) = %d, want 3", idx3, st.IDAt(idx3))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexReuseAfterDelete verifies freed slots are recycled rather
// than growing the tables without bound.
func TestIndexReuseAfterDelete(t *testing.T) {
	st := newStore(t)
	for id := ID(0); id < 4; id++ {
		mustCreate(t, st, id, 4096)
	}
	freed, _ := slotOf(st, 2)
	st.DeleteIndexed(freed)
	idx := mustCreate(t, st, 99, 4096)
	if idx != freed {
		t.Fatalf("new object got slot %d, want recycled slot %d", idx, freed)
	}
	if st.IDAt(idx) != 99 {
		t.Fatalf("IDAt(%d) = %d, want 99", idx, st.IDAt(idx))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSortedIndicesTracksChurn checks the cached id-sorted index list
// is rebuilt correctly after create/delete churn and always enumerates
// ascending ids — the snapshot builder's iteration order.
func TestSortedIndicesTracksChurn(t *testing.T) {
	st := newStore(t)
	live := map[ID]bool{}
	ops := []struct {
		del bool
		id  ID
	}{
		{false, 7}, {false, 3}, {false, 11}, {false, 5},
		{del: true, id: 3},
		{false, 4}, {false, 2},
		{del: true, id: 11},
		{false, 9}, {false, 3},
	}
	for _, op := range ops {
		if op.del {
			idx, ok := slotOf(st, op.id)
			if !ok {
				t.Fatalf("object %d missing before delete", op.id)
			}
			st.DeleteIndexed(idx)
			delete(live, op.id)
		} else {
			mustCreate(t, st, op.id, 4096)
			live[op.id] = true
		}
		var want []ID
		for id := range live {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		idxs := st.SortedIndices()
		if len(idxs) != len(want) {
			t.Fatalf("SortedIndices has %d entries, want %d", len(idxs), len(want))
		}
		for i, ix := range idxs {
			if st.IDAt(ix) != want[i] {
				t.Fatalf("SortedIndices[%d] = object %d, want %d", i, st.IDAt(ix), want[i])
			}
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyStoreDenseViews covers the zero-object edge of the dense
// API.
func TestEmptyStoreDenseViews(t *testing.T) {
	st := newStore(t)
	if got := st.SortedIndices(); len(got) != 0 {
		t.Fatalf("empty store SortedIndices = %v", got)
	}
	for _, idx := range []Index{NoIndex, 0, 1} {
		if id, ok := st.Holds(idx); ok {
			t.Fatalf("Holds(%d) on an empty store = object %d", idx, id)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
