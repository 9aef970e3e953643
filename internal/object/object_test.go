package object

import (
	"errors"
	"math/rand"
	"testing"

	"edm/internal/flash"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	ssd, err := flash.New(flash.Config{
		PageSize:      4096,
		PagesPerBlock: 8,
		Blocks:        64, // 512 pages; MaxLive = 512-40 = 472
		GCLowBlocks:   2,
		GCHighBlocks:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(ssd)
}

// mustCreate creates an object and returns its handle, failing the test
// on error.
func mustCreate(t *testing.T, st *Store, id ID, size int64) Index {
	t.Helper()
	idx, err := st.CreateIndexed(id, size)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// slotOf returns the live slot holding id, found by walking the store's
// slots: the store keeps no id index of its own.
func slotOf(st *Store, id ID) (Index, bool) {
	for i := range st.ids {
		if got, ok := st.Holds(Index(i)); ok && got == id {
			return Index(i), true
		}
	}
	return NoIndex, false
}

func TestCreateDeleteLifecycle(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 10000)
	if id, ok := st.Holds(idx); !ok || id != 1 {
		t.Fatal("object missing after CreateIndexed")
	}
	if st.SizeAt(idx) != 10000 {
		t.Fatalf("SizeAt = %d", st.SizeAt(idx))
	}
	if st.PagesAt(idx) != 3 { // ceil(10000/4096)
		t.Fatalf("PagesAt = %d", st.PagesAt(idx))
	}
	if st.UsedPages() != 3 {
		t.Fatalf("UsedPages = %d", st.UsedPages())
	}
	st.DeleteIndexed(idx)
	if _, ok := st.Holds(idx); ok || st.UsedPages() != 0 {
		t.Fatal("object remains after DeleteIndexed")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeObjectOccupiesOnePage(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 0)
	if st.PagesAt(idx) != 1 {
		t.Fatalf("zero-size object pages = %d", st.PagesAt(idx))
	}
}

func TestPopulateWritesEveryPage(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 5*4096)
	lat, err := st.PopulateAt(idx)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 5*flash.DefaultProgramLatency {
		t.Fatalf("populate latency %v", lat)
	}
	if st.SSD().LivePages() != 5 {
		t.Fatalf("live pages = %d", st.SSD().LivePages())
	}
}

func TestWriteByteRangeTouchesRightPages(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 10*4096)
	// A 100-byte write straddling a page boundary touches 2 pages.
	lat, err := st.WriteAt(idx, 4096-50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 2*flash.DefaultProgramLatency {
		t.Fatalf("straddling write latency %v", lat)
	}
	// A one-byte write touches 1 page.
	lat, err = st.WriteAt(idx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lat != flash.DefaultProgramLatency {
		t.Fatalf("1-byte write latency %v", lat)
	}
}

func TestWriteZeroLengthIsFree(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 4096)
	lat, err := st.WriteAt(idx, 0, 0)
	if err != nil || lat != 0 {
		t.Fatalf("zero-length write: lat=%v err=%v", lat, err)
	}
}

func TestReadClampsToSize(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 4096)
	lat, err := st.ReadAt(idx, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if lat != flash.DefaultReadLatency {
		t.Fatalf("clamped read latency %v", lat)
	}
	// Reading past the end is a no-op.
	lat, err = st.ReadAt(idx, 8192, 100)
	if err != nil || lat != 0 {
		t.Fatalf("past-end read: lat=%v err=%v", lat, err)
	}
}

func TestWriteGrowsObject(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 4096)
	if _, err := st.WriteAt(idx, 8000, 1000); err != nil {
		t.Fatal(err)
	}
	if st.SizeAt(idx) != 9000 {
		t.Fatalf("grown size = %d", st.SizeAt(idx))
	}
	if st.PagesAt(idx) != 3 {
		t.Fatalf("grown pages = %d", st.PagesAt(idx))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthAcrossFragmentation(t *testing.T) {
	st := newStore(t)
	// Fill with interleaved objects, delete every other one, then grow
	// a survivor across the resulting fragmentation.
	idx := make([]Index, 20)
	for i := range idx {
		idx[i] = mustCreate(t, st, ID(i), 4*4096)
	}
	for i := 0; i < 20; i += 2 {
		st.DeleteIndexed(idx[i])
	}
	if _, err := st.WriteAt(idx[1], 0, 30*4096); err != nil {
		t.Fatal(err)
	}
	if st.PagesAt(idx[1]) != 30 {
		t.Fatalf("pages after fragmented growth = %d", st.PagesAt(idx[1]))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSpace(t *testing.T) {
	st := newStore(t)
	cap := st.CapacityPages()
	idx := mustCreate(t, st, 1, cap*4096)
	if _, err := st.CreateIndexed(2, 4096); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Failed allocation must not leak pages.
	st.DeleteIndexed(idx)
	if st.UsedPages() != 0 {
		t.Fatalf("leak: used = %d", st.UsedPages())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllCoversObject(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 7*4096)
	lat, err := st.ReadAt(idx, 0, st.SizeAt(idx))
	if err != nil {
		t.Fatal(err)
	}
	if lat != 7*flash.DefaultReadLatency {
		t.Fatalf("whole-object read latency %v", lat)
	}
}

func TestIDsSorted(t *testing.T) {
	st := newStore(t)
	for _, id := range []ID{5, 1, 3} {
		mustCreate(t, st, id, 100)
	}
	ids := st.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestDeleteTrimsFlash(t *testing.T) {
	st := newStore(t)
	idx := mustCreate(t, st, 1, 10*4096)
	if _, err := st.PopulateAt(idx); err != nil {
		t.Fatal(err)
	}
	if st.SSD().LivePages() != 10 {
		t.Fatalf("live = %d", st.SSD().LivePages())
	}
	st.DeleteIndexed(idx)
	if st.SSD().LivePages() != 0 {
		t.Fatalf("delete must trim: live = %d", st.SSD().LivePages())
	}
}

// Fuzz create/delete/write/read against the allocator invariants.
func TestRandomLifecyclesPreserveInvariants(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		st := newStore(t)
		rnd := rand.New(rand.NewSource(seed))
		alive := map[ID]Index{}
		for op := 0; op < 2000; op++ {
			id := ID(rnd.Intn(40))
			idx, ok := alive[id]
			switch rnd.Intn(5) {
			case 0, 1:
				if !ok {
					size := int64(rnd.Intn(8*4096) + 1)
					if idx, err := st.CreateIndexed(id, size); err == nil {
						alive[id] = idx
					} else if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("seed %d op %d create: %v", seed, op, err)
					}
				}
			case 2:
				if ok {
					st.DeleteIndexed(idx)
					delete(alive, id)
				}
			case 3:
				if ok {
					off := int64(rnd.Intn(int(st.SizeAt(idx)) + 1))
					if _, err := st.WriteAt(idx, off, int64(rnd.Intn(4096)+1)); err != nil &&
						!errors.Is(err, ErrNoSpace) {
						t.Fatalf("seed %d op %d write: %v", seed, op, err)
					}
				}
			case 4:
				if ok {
					if _, err := st.ReadAt(idx, 0, int64(rnd.Intn(8192))); err != nil {
						t.Fatalf("seed %d op %d read: %v", seed, op, err)
					}
				}
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := st.SSD().CheckInvariants(); err != nil {
			t.Fatalf("seed %d flash: %v", seed, err)
		}
	}
}
