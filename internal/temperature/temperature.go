// Package temperature tracks object temperatures per Definition 1 of the
// EDM paper: the time line since an object's creation is split into
// fixed-width intervals, and the temperature at interval boundary k is
//
//	T_k(O) = Σ_{i=1..k} A_i / 2^(k−i)  =  T_{k−1}(O)/2 + A_k   (Eq. 5, 6)
//
// where A_i counts the accesses to O during interval i. The tracker
// maintains two temperatures per object with different A_i definitions:
//
//   - the write temperature counts only write operations (used by HDF,
//     which moves the most write-frequently objects), and
//   - the total temperature counts reads and writes (used by CDF, which
//     moves rarely-accessed objects).
//
// Accesses are weighted by the number of pages touched, so "reducing the
// total write pages by ΔW_c" (§III.B.5) is dimensionally consistent with
// the temperatures used to pick objects.
//
// Entries decay lazily: an object's counters are only brought forward to
// the current interval when the object is touched or queried, so idle
// objects cost nothing per tick.
//
// Storage is struct-of-arrays: each per-object counter lives in its own
// slice, indexed by a Slot handle that is the object's object.Index in
// the OSD's store, so the replay hot path touches a handful of cache
// lines and allocates nothing. The tracker holds only Definition 1's
// counters: which object a row belongs to, and whether it belongs to
// one at all, is the store's record, which StateDigest reads.
package temperature

import (
	"fmt"
	"math"

	"edm/internal/sim"
)

// DefaultInterval is the decay interval; the paper recomputes wear and
// temperatures on a one-minute cadence (§III.B.2).
const DefaultInterval = sim.Minute

// Slot is a dense row handle into the tracker's tables: the store slot
// of the object whose counters the row holds.
type Slot int32

// Tracker records accesses for one OSD's objects. Objects migrate
// between trackers via ExportAt/ImportAt so their history follows them.
// Per-object state is held in parallel slices indexed by Slot.
type Tracker struct {
	interval sim.Time

	epoch []int64 // interval index the temperatures are valid for

	wTemp []float64 // decayed write temperature at start of epoch
	tTemp []float64 // decayed read+write temperature at start of epoch
	wAcc  []float64 // write pages accumulated within current epoch
	tAcc  []float64 // total pages accumulated within current epoch
	winW  []float64 // write pages since the last window reset (ΔW_c accounting)
	cumW  []float64 // write pages since creation
	cumR  []float64 // read pages since creation
}

// New returns a tracker with the given decay interval.
func New(interval sim.Time) *Tracker {
	t := &Tracker{}
	t.Reset(interval)
	return t
}

// Reset makes t the empty tracker New(interval) returns, in t's columns.
func (t *Tracker) Reset(interval sim.Time) {
	if interval <= 0 {
		panic(fmt.Sprintf("temperature: non-positive interval %v", interval))
	}
	(&Tracker{interval: interval}).Clone(t)
}

// Clone returns a deep copy of the tracker, in dst's columns when dst
// is non-nil (dst is overwritten, so it must belong to no live tracker)
// and in new ones otherwise. t is only read (no row is
// brought forward), and the copy shares no memory with it.
func (t *Tracker) Clone(dst *Tracker) *Tracker {
	if dst == nil {
		dst = &Tracker{}
	}
	*dst = Tracker{
		interval: t.interval,
		epoch:    append(dst.epoch[:0], t.epoch...),
		wTemp:    append(dst.wTemp[:0], t.wTemp...),
		tTemp:    append(dst.tTemp[:0], t.tTemp...),
		wAcc:     append(dst.wAcc[:0], t.wAcc...),
		tAcc:     append(dst.tAcc[:0], t.tAcc...),
		winW:     append(dst.winW[:0], t.winW...),
		cumW:     append(dst.cumW[:0], t.cumW...),
		cumR:     append(dst.cumR[:0], t.cumR...),
	}
	return dst
}

func (t *Tracker) epochOf(now sim.Time) int64 { return int64(now / t.interval) }

// grow ensures the tables cover slot s.
func (t *Tracker) grow(s Slot) {
	for len(t.epoch) <= int(s) {
		t.epoch = append(t.epoch, 0)
		t.wTemp = append(t.wTemp, 0)
		t.tTemp = append(t.tTemp, 0)
		t.wAcc = append(t.wAcc, 0)
		t.tAcc = append(t.tAcc, 0)
		t.winW = append(t.winW, 0)
		t.cumW = append(t.cumW, 0)
		t.cumR = append(t.cumR, 0)
	}
}

// clearRow zeroes slot s's counters.
func (t *Tracker) clearRow(s Slot) {
	t.epoch[s] = 0
	t.wTemp[s] = 0
	t.tTemp[s] = 0
	t.wAcc[s] = 0
	t.tAcc[s] = 0
	t.winW[s] = 0
	t.cumW[s] = 0
	t.cumR[s] = 0
}

// InstallAt gives slot s fresh (zero) counters, growing the tables to
// cover it. Whatever a recycled slot held before is dropped.
func (t *Tracker) InstallAt(s Slot) {
	t.grow(s)
	t.clearRow(s)
}

// advance folds accumulated accesses into the temperatures and decays
// them up to the given epoch.
func (t *Tracker) advance(s Slot, epoch int64) {
	if epoch <= t.epoch[s] {
		return
	}
	gap := epoch - t.epoch[s]
	// First boundary crossing folds the current interval's accesses.
	t.wTemp[s] = t.wTemp[s]/2 + t.wAcc[s]
	t.tTemp[s] = t.tTemp[s]/2 + t.tAcc[s]
	t.wAcc[s], t.tAcc[s] = 0, 0
	// Remaining boundary crossings observe no accesses.
	if rest := gap - 1; rest > 0 {
		if rest >= 64 {
			t.wTemp[s], t.tTemp[s] = 0, 0
		} else {
			scale := math.Ldexp(1, -int(rest))
			t.wTemp[s] *= scale
			t.tTemp[s] *= scale
		}
	}
	t.epoch[s] = epoch
}

// TouchWrite notes a write touching pages pages at virtual time now, by
// slot. This is the replay hot path; it allocates nothing.
func (t *Tracker) TouchWrite(s Slot, pages int, now sim.Time) {
	t.advance(s, t.epochOf(now))
	p := float64(pages)
	t.wAcc[s] += p
	t.tAcc[s] += p
	t.winW[s] += p
	t.cumW[s] += p
}

// TouchRead notes a read touching pages pages at virtual time now, by
// slot. Zero-alloc like TouchWrite.
func (t *Tracker) TouchRead(s Slot, pages int, now sim.Time) {
	t.advance(s, t.epochOf(now))
	p := float64(pages)
	t.tAcc[s] += p
	t.cumR[s] += p
}

// Snapshot is an object's temperature state at a query instant.
type Snapshot struct {
	WriteTemp float64 // HDF ranking key
	TotalTemp float64 // CDF coldness key
	WinWrites float64 // write pages since last window reset
	CumWrites float64
	CumReads  float64
}

// QueryAt returns slot s's snapshot as of now. The in-progress
// interval's accesses contribute at full weight (they are the freshest
// signal available at selection time).
func (t *Tracker) QueryAt(s Slot, now sim.Time) Snapshot {
	t.advance(s, t.epochOf(now))
	return Snapshot{
		WriteTemp: t.wTemp[s] + t.wAcc[s],
		TotalTemp: t.tTemp[s] + t.tAcc[s],
		WinWrites: t.winW[s],
		CumWrites: t.cumW[s],
		CumReads:  t.cumR[s],
	}
}

// ResetWindow zeroes every object's window write counter, starting a new
// ΔW_c accounting window (called when a migration round completes).
func (t *Tracker) ResetWindow() {
	for s := range t.winW {
		t.winW[s] = 0
	}
}

// ExportAt returns slot s's state as of now for transfer to another
// tracker. The row stays as it is until InstallAt recycles it.
func (t *Tracker) ExportAt(s Slot, now sim.Time) Snapshot {
	t.advance(s, t.epochOf(now))
	snap := Snapshot{
		WriteTemp: t.wTemp[s],
		TotalTemp: t.tTemp[s],
		WinWrites: t.winW[s],
		CumWrites: t.cumW[s],
		CumReads:  t.cumR[s],
	}
	// Carry the unfolded in-interval accesses along in the temps so no
	// history is lost across a move.
	snap.WriteTemp += t.wAcc[s]
	snap.TotalTemp += t.tAcc[s]
	return snap
}

// ImportAt installs a snapshot exported from another tracker at slot s.
func (t *Tracker) ImportAt(s Slot, snap Snapshot, now sim.Time) {
	t.InstallAt(s)
	t.epoch[s] = t.epochOf(now)
	t.wTemp[s] = snap.WriteTemp
	t.tTemp[s] = snap.TotalTemp
	t.winW[s] = snap.WinWrites
	t.cumW[s] = snap.CumWrites
	t.cumR[s] = snap.CumReads
}
