package object

import (
	"testing"

	"edm/internal/fnvx"
)

// TestCloneIsIndependent clones a store with deleted slots and spilled
// extents onto a clone of its device: the copy must digest the same,
// behave the same, and leave the original untouched when it alone
// changes.
func TestCloneIsIndependent(t *testing.T) {
	st := newStore(t)
	for id := ID(1); id <= 8; id++ {
		idx := mustCreate(t, st, id, 3*4096)
		if _, err := st.PopulateAt(idx); err != nil {
			t.Fatal(err)
		}
	}
	idx, _ := st.Lookup(3)
	st.DeleteIndexed(idx)
	idx, _ = st.Lookup(5)
	if _, err := st.WriteAt(idx, 0, 20*4096); err != nil { // grows into a spill extent
		t.Fatal(err)
	}
	digest := func(s *Store) uint64 { return s.StateDigest(fnvx.New()).Sum() }
	c := st.Clone(st.SSD().Clone())
	if digest(c) != digest(st) {
		t.Fatal("clone digests differ")
	}
	before := digest(st)
	mutate := func(s *Store) {
		idx := mustCreate(t, s, 42, 5*4096)
		if _, err := s.WriteAt(idx, 0, 5*4096); err != nil {
			t.Fatal(err)
		}
		old, _ := s.Lookup(5)
		s.DeleteIndexed(old)
	}
	mutate(c)
	if digest(st) != before {
		t.Fatal("changing the clone changed the original")
	}
	mutate(st)
	if digest(c) != digest(st) {
		t.Fatal("clone and original diverged under the same changes")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
