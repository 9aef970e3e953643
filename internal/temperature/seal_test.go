package temperature

import (
	"math/rand"
	"testing"

	"edm/internal/flash"
	"edm/internal/fnvx"
	"edm/internal/object"
	"edm/internal/sim"
)

// newStore returns an empty store on a small device (472 usable pages).
func newStore(t *testing.T) *object.Store {
	t.Helper()
	ssd, err := flash.New(flash.Config{
		PageSize: 4096, PagesPerBlock: 8, Blocks: 64, GCLowBlocks: 2, GCHighBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return object.NewStore(ssd)
}

// create makes a one-page object id on st and returns its slot.
func create(t *testing.T, st *object.Store, id object.ID) Slot {
	t.Helper()
	idx, err := st.CreateIndexed(id, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return Slot(idx)
}

// oldColumns is the record a tracker kept of its own rows while it
// held one: each row's object id and occupancy, and the live count,
// written as InstallAt, ForgetAt and ExportAt wrote them.
type oldColumns struct {
	ids  []object.ID
	used []bool
	live int
}

func (m *oldColumns) install(s Slot, id object.ID) {
	for len(m.ids) <= int(s) {
		m.ids = append(m.ids, 0)
		m.used = append(m.used, false)
	}
	if m.used[s] {
		m.live--
	}
	m.ids[s], m.used[s] = id, true
	m.live++
}

func (m *oldColumns) forget(s Slot) {
	if int(s) < len(m.used) && m.used[s] {
		m.used[s] = false
		m.live--
	}
}

// digest is the word the tracker sealed when it held the columns: its
// interval, live count and row count, then per row the occupancy flag
// and, for an occupied row, the id and the raw counters.
func (m *oldColumns) digest(t *Tracker) uint64 {
	h := fnvx.New().Int64(int64(t.interval)).Int(m.live).Int(len(m.ids))
	for i := range m.ids {
		if !m.used[i] {
			h = h.Bool(false)
			continue
		}
		h = h.Bool(true).Int64(int64(m.ids[i])).Int64(t.epoch[i]).
			Float64(t.wTemp[i]).Float64(t.tTemp[i]).Float64(t.wAcc[i]).Float64(t.tAcc[i]).
			Float64(t.winW[i]).Float64(t.cumW[i]).Float64(t.cumR[i])
	}
	return h.Sum()
}

// sealedOSD is one device's store and tracker, with the old columns
// kept beside them.
type sealedOSD struct {
	st  *object.Store
	tr  *Tracker
	old oldColumns
}

// copyInFlight is a move whose destination copy exists but has not
// committed: both slots are live until it commits or aborts.
type copyInFlight struct {
	src, dst   *sealedOSD
	from, to   Slot
	id         object.ID
	commitNext bool
}

// TestSealMatchesOldColumns drives two devices through seeded histories
// of the operations the cluster performs — create and install, touch,
// query, window reset, a move's start, commit and abort (export and
// import, slot recycling) — and requires after every step that each
// tracker's StateDigest equals the word the old columns hash.
func TestSealMatchesOldColumns(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		osds := []*sealedOSD{
			{st: newStore(t), tr: New(iv)},
			{st: newStore(t), tr: New(iv)},
		}
		var inFlight []copyInFlight
		busy := map[*sealedOSD]map[Slot]bool{osds[0]: {}, osds[1]: {}}
		next, now := object.ID(1), sim.Time(0)
		// idle picks a live slot of o that no move holds, or false.
		idle := func(o *sealedOSD) (Slot, bool) {
			var free []Slot
			for _, idx := range o.st.SortedIndices() {
				if !busy[o][Slot(idx)] {
					free = append(free, Slot(idx))
				}
			}
			if len(free) == 0 {
				return 0, false
			}
			return free[rng.Intn(len(free))], true
		}
		for step := 0; step < 400; step++ {
			now += sim.Time(rng.Int63n(int64(iv / 2)))
			o := osds[rng.Intn(2)]
			live := o.st.SortedIndices()
			switch op := rng.Intn(7); {
			case op == 0 && o.st.Len() < 40:
				id := next
				next++
				idx, err := o.st.CreateIndexed(id, rng.Int63n(3*4096))
				if err != nil {
					continue
				}
				o.tr.InstallAt(Slot(idx))
				o.old.install(Slot(idx), id)
			case op == 1 && len(live) > 0:
				s := Slot(live[rng.Intn(len(live))])
				if rng.Intn(2) == 0 {
					o.tr.TouchWrite(s, 1+rng.Intn(8), now)
				} else {
					o.tr.TouchRead(s, 1+rng.Intn(8), now)
				}
			case op == 2 && len(live) > 0:
				o.tr.QueryAt(Slot(live[rng.Intn(len(live))]), now)
			case op == 3:
				o.tr.ResetWindow()
			case op == 4:
				from, ok := idle(o)
				dst := osds[0]
				if dst == o {
					dst = osds[1]
				}
				if !ok {
					continue
				}
				id := o.st.IDAt(object.Index(from))
				idx, err := dst.st.CreateIndexed(id, o.st.SizeAt(object.Index(from)))
				if err != nil {
					continue
				}
				dst.tr.InstallAt(Slot(idx))
				dst.old.install(Slot(idx), id)
				busy[o][from], busy[dst][Slot(idx)] = true, true
				inFlight = append(inFlight, copyInFlight{o, dst, from, Slot(idx), id, rng.Intn(4) != 0})
			case op >= 5 && len(inFlight) > 0:
				i := rng.Intn(len(inFlight))
				mv := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				delete(busy[mv.src], mv.from)
				delete(busy[mv.dst], mv.to)
				if !mv.commitNext { // the copy fails: its slot is freed
					mv.dst.st.DeleteIndexed(object.Index(mv.to))
					mv.dst.old.forget(mv.to)
					break
				}
				mv.src.st.DeleteIndexed(object.Index(mv.from))
				snap := mv.src.tr.ExportAt(mv.from, now)
				mv.src.old.forget(mv.from)
				mv.dst.tr.ImportAt(mv.to, snap, now)
				mv.dst.old.install(mv.to, mv.id)
			}
			for i, o := range osds {
				if got, want := o.tr.StateDigest(o.st), o.old.digest(o.tr); got != want {
					t.Fatalf("seed %d step %d osd %d: StateDigest %x, old columns seal %x", seed, step, i, got, want)
				}
			}
		}
	}
}
