package temperature

import (
	"math"
	"testing"

	"edm/internal/sim"
)

// ulpApart reports whether a and b are equal to within one unit in the
// last place.
func ulpApart(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Nextafter(a, b) == b
}

// TestLazyDecayMatchesEager pins the lazy-advance equivalence: a
// tracker queried only once after a long idle gap must report the same
// temperatures (within 1 ulp) as one whose entry was brought forward at
// every interval boundary. The lazy path folds the whole gap with a
// single Ldexp scale, which is exact halving — so the two histories
// cannot drift.
func TestLazyDecayMatchesEager(t *testing.T) {
	lazy := tracked()
	eager := tracked()
	touches := []struct {
		at    sim.Time
		w, r  int
		write bool
	}{
		{at: 0, w: 10, write: true},
		{at: 3*iv + iv/2, w: 7, write: true},
		{at: 3*iv + iv/2, r: 5},
		{at: 19 * iv, w: 2, write: true},
		{at: 40*iv + 1, r: 3},
	}
	ti := 0
	for k := sim.Time(0); k <= 55*iv; k += iv / 2 {
		for ti < len(touches) && touches[ti].at <= k {
			tc := touches[ti]
			if tc.write {
				lazy.TouchWrite(0, tc.w, tc.at)
				eager.TouchWrite(0, tc.w, tc.at)
			} else {
				lazy.TouchRead(0, tc.r, tc.at)
				eager.TouchRead(0, tc.r, tc.at)
			}
			ti++
		}
		// Only the eager tracker is advanced at every half-interval;
		// the lazy one decays in one shot at the final query.
		eager.QueryAt(0, k)
	}
	at := 55 * iv
	l, e := lazy.QueryAt(0, at), eager.QueryAt(0, at)
	if !ulpApart(l.WriteTemp, e.WriteTemp) {
		t.Errorf("lazy WriteTemp %v, eager %v: more than 1 ulp apart", l.WriteTemp, e.WriteTemp)
	}
	if !ulpApart(l.TotalTemp, e.TotalTemp) {
		t.Errorf("lazy TotalTemp %v, eager %v: more than 1 ulp apart", l.TotalTemp, e.TotalTemp)
	}
	if l.CumWrites != e.CumWrites || l.CumReads != e.CumReads || l.WinWrites != e.WinWrites {
		t.Errorf("cumulative counters diverged: lazy %+v, eager %+v", l, e)
	}
}

// TestTouchZeroAlloc pins the hot path's allocation behaviour: once
// slots are installed, steady-state TouchWrite/TouchRead — including
// epoch advances — must not allocate. The CI bench matrix runs this
// alongside the -benchmem gate.
func TestTouchZeroAlloc(t *testing.T) {
	tr := New(iv)
	const slots = 128
	for i := 0; i < slots; i++ {
		tr.InstallAt(Slot(i))
	}
	now := sim.Time(0)
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		now += iv / 3 // crosses an interval boundary every third touch
		s := Slot(n % slots)
		tr.TouchWrite(s, 2, now)
		tr.TouchRead(s, 1, now)
		n++
	})
	if allocs != 0 {
		t.Fatalf("TouchWrite/TouchRead allocated %v times per run; want 0", allocs)
	}
}

// TestInstallAtReplacesOccupant covers slot recycling: installing a
// slot again resets its counters, and ImportAt onto the row a move
// installed up front replaces what the row gathered meanwhile.
func TestInstallAtReplacesOccupant(t *testing.T) {
	tr := New(iv)
	tr.InstallAt(0)
	tr.TouchWrite(0, 8, 0)
	// Recycle slot 0 for a new object: its counters start over.
	tr.InstallAt(0)
	if s := tr.QueryAt(0, iv); s.WriteTemp != 0 || s.CumWrites != 0 {
		t.Fatalf("recycled slot kept old counters: %+v", s)
	}
	tr.TouchWrite(0, 3, iv)
	tr.ImportAt(0, Snapshot{CumWrites: 5}, iv)
	if s := tr.QueryAt(0, iv); s.CumWrites != 5 || s.WriteTemp != 0 {
		t.Fatalf("ImportAt did not replace the row: %+v", s)
	}
}
