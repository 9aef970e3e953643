package temperature

import (
	"testing"

	"edm/internal/fnvx"
	"edm/internal/sim"
)

func TestCloneIsIndependent(t *testing.T) {
	tr := New(sim.Minute)
	for s := Slot(0); s < 4; s++ {
		tr.InstallAt(s, ObjectID(s+10))
		tr.TouchWrite(s, int(s)+1, sim.Time(s)*sim.Minute)
	}
	tr.ForgetAt(2)
	digest := func(x *Tracker) uint64 { return x.StateDigest(fnvx.New()).Sum() }
	c := tr.Clone()
	if digest(c) != digest(tr) {
		t.Fatal("clone digests differ")
	}
	before := digest(tr)
	mutate := func(x *Tracker) {
		x.TouchRead(1, 7, 9*sim.Minute)
		x.InstallAt(5, 99)
		x.ResetWindow()
	}
	mutate(c)
	if digest(tr) != before {
		t.Fatal("changing the clone changed the original")
	}
	mutate(tr)
	if digest(c) != digest(tr) {
		t.Fatal("clone and original diverged under the same changes")
	}
}
