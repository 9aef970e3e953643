package temperature

import (
	"math"
	"testing"

	"edm/internal/object"
	"edm/internal/sim"
)

const iv = sim.Minute

// tracked returns a tracker with slot 0 installed.
func tracked() *Tracker {
	tr := New(iv)
	tr.InstallAt(0)
	return tr
}

func TestRecurrenceEquationSix(t *testing.T) {
	// T_k = T_{k-1}/2 + A_k, checked against the closed form Eq.(5).
	tr := tracked()
	accesses := []int{4, 0, 2, 8, 1}
	for k, a := range accesses {
		for i := 0; i < a; i++ {
			tr.TouchWrite(0, 1, sim.Time(k)*iv+iv/2)
		}
	}
	// Query at the start of epoch len(accesses): all epochs folded.
	got := tr.QueryAt(0, sim.Time(len(accesses))*iv).WriteTemp
	want := 0.0
	k := len(accesses)
	for i, a := range accesses {
		want += float64(a) / math.Pow(2, float64(k-i-1))
	}
	// Query at epoch k sees T_k (folded at the k-th boundary).
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Eq.(5/6) mismatch: got %v want %v", got, want)
	}
}

func TestCurrentIntervalCountsAtFullWeight(t *testing.T) {
	tr := tracked()
	tr.TouchWrite(0, 3, 10)
	snap := tr.QueryAt(0, 20)
	if snap.WriteTemp != 3 {
		t.Fatalf("in-interval accesses should count fully: %v", snap.WriteTemp)
	}
}

func TestDecayOverIdleGaps(t *testing.T) {
	tr := tracked()
	tr.TouchWrite(0, 8, 0)
	// The access at t=0 belongs to interval 1, so T_1 = 8 and each
	// further idle boundary halves it: T_g = 8 / 2^(g-1).
	for _, g := range []int64{1, 2, 3, 10} {
		got := tr.QueryAt(0, sim.Time(g)*iv).WriteTemp
		want := 8 / math.Pow(2, float64(g-1))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("gap %d: got %v want %v", g, got, want)
		}
	}
}

func TestLongGapUnderflowsToZero(t *testing.T) {
	tr := tracked()
	tr.TouchWrite(0, 1000, 0)
	if got := tr.QueryAt(0, 100*iv).WriteTemp; got != 0 {
		t.Fatalf("after 100 idle epochs temp should be exactly 0, got %v", got)
	}
}

func TestWriteVsTotalTemperature(t *testing.T) {
	tr := tracked()
	tr.TouchWrite(0, 2, 0)
	tr.TouchRead(0, 5, 0)
	snap := tr.QueryAt(0, 0)
	if snap.WriteTemp != 2 {
		t.Fatalf("write temp %v", snap.WriteTemp)
	}
	if snap.TotalTemp != 7 {
		t.Fatalf("total temp %v", snap.TotalTemp)
	}
	if snap.CumWrites != 2 || snap.CumReads != 5 {
		t.Fatalf("cumulative: %v/%v", snap.CumWrites, snap.CumReads)
	}
}

func TestWindowWrites(t *testing.T) {
	tr := tracked()
	tr.TouchWrite(0, 4, 0)
	tr.TouchWrite(0, 6, iv)
	if got := tr.QueryAt(0, iv).WinWrites; got != 10 {
		t.Fatalf("window writes %v", got)
	}
	tr.ResetWindow()
	if got := tr.QueryAt(0, iv).WinWrites; got != 0 {
		t.Fatalf("window writes after reset %v", got)
	}
	// Cumulative counter unaffected by window reset.
	if got := tr.QueryAt(0, iv).CumWrites; got != 10 {
		t.Fatalf("cumulative writes after reset %v", got)
	}
}

// TestUnknownObjectIsZero: an object installed without accesses has
// zero temperature at any later time, and querying it adds no row.
func TestUnknownObjectIsZero(t *testing.T) {
	tr := New(iv)
	tr.InstallAt(3)
	snap := tr.QueryAt(3, 5*iv)
	if snap.WriteTemp != 0 || snap.TotalTemp != 0 || snap.WinWrites != 0 {
		t.Fatalf("untouched object: %+v", snap)
	}
	if len(tr.epoch) != 4 {
		t.Fatalf("%d rows, want 4: QueryAt must not materialise entries", len(tr.epoch))
	}
}

// TestForget: an object is forgotten by freeing its store slot. The
// tracker's seal then counts the row as free, whatever counters it
// still holds, and the next object on the recycled slot starts from
// zero.
func TestForget(t *testing.T) {
	st, tr := newStore(t), New(iv)
	s := create(t, st, 1)
	tr.InstallAt(s)
	tr.TouchWrite(s, 5, 0)
	st.DeleteIndexed(object.Index(s))
	untouched := New(iv)
	untouched.InstallAt(s)
	if tr.StateDigest(st) != untouched.StateDigest(st) {
		t.Fatal("a freed slot's leftover counters reached the seal")
	}
	if again := create(t, st, 2); again != s {
		t.Fatalf("object 2 got slot %d, want recycled slot %d", again, s)
	}
	tr.InstallAt(s)
	if snap := tr.QueryAt(s, iv); snap.WriteTemp != 0 || snap.CumWrites != 0 {
		t.Fatalf("recycled slot kept the forgotten object's counters: %+v", snap)
	}
}

func TestExportImportCarriesHistory(t *testing.T) {
	src, dst := tracked(), New(iv)
	src.TouchWrite(0, 8, 0)
	src.TouchRead(0, 4, 0)
	now := 2 * iv
	snap := src.ExportAt(0, now)
	dst.ImportAt(7, snap, now)
	got := dst.QueryAt(7, now)
	// T_1 = 8 writes (12 total), one further idle boundary halves:
	// T_2 = 4 writes, 6 total.
	if math.Abs(got.WriteTemp-4) > 1e-9 || math.Abs(got.TotalTemp-6) > 1e-9 {
		t.Fatalf("imported temps: %+v", got)
	}
	if got.CumWrites != 8 || got.CumReads != 4 {
		t.Fatalf("imported cumulative: %+v", got)
	}
	// Further decay continues on the destination.
	if g := dst.QueryAt(7, 3*iv).WriteTemp; math.Abs(g-2) > 1e-9 {
		t.Fatalf("post-import decay: %v", g)
	}
}

func TestHotterObjectRanksHigher(t *testing.T) {
	tr := New(iv)
	tr.InstallAt(0)
	tr.InstallAt(1)
	// Object 1: heavily written long ago. Object 2: modestly written
	// recently. Temporal decay must rank 2 above 1 eventually.
	tr.TouchWrite(0, 100, 0)
	tr.TouchWrite(1, 10, 8*iv)
	now := 8 * iv
	s1, s2 := tr.QueryAt(0, now), tr.QueryAt(1, now)
	if s2.WriteTemp <= s1.WriteTemp {
		t.Fatalf("recency should beat stale volume: old=%v new=%v", s1.WriteTemp, s2.WriteTemp)
	}
}

func TestIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive interval must panic")
		}
	}()
	New(0)
}

func TestDefaultIntervalIsOneMinute(t *testing.T) {
	if DefaultInterval != sim.Minute {
		t.Fatalf("paper cadence is one minute, got %v", DefaultInterval)
	}
}
