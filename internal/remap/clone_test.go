package remap

import (
	"reflect"
	"testing"

	"edm/internal/fnvx"
	"edm/internal/object"
)

func TestCloneIsIndependent(t *testing.T) {
	tb := New()
	tb.Record(3, 0, 1)
	tb.Record(-7, 2, 5) // overflow entry
	tb.Record(3, 0, 0)  // back home
	tb.Record(9, 1, 2)
	digest := func(x *Table) uint64 { return x.StateDigest(fnvx.New()).Sum() }
	c := tb.Clone()
	if digest(c) != digest(tb) || c.Stats() != tb.Stats() {
		t.Fatal("clone differs")
	}
	before, entries := digest(tb), tb.Entries()
	mutate := func(x *Table) {
		x.Record(-7, 2, 2)
		x.Record(1<<23, 0, 3)
		x.Record(4, 1, 3)
	}
	mutate(c)
	if digest(tb) != before || !reflect.DeepEqual(tb.Entries(), entries) {
		t.Fatal("changing the clone changed the original")
	}
	mutate(tb)
	if digest(c) != digest(tb) || c.Stats() != tb.Stats() || c.Lookup(object.ID(1<<23), 9) != 3 {
		t.Fatal("clone and original diverged under the same changes")
	}
}
