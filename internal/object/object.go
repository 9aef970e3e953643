// Package object implements the per-OSD object store: variable-size
// objects bound to logical-page extents on a flash.SSD. Object-based
// storage devices (osc-osd in the paper's testbed) expose exactly this
// interface — create/delete/read/write of an object's byte ranges.
//
// Internally the store is a struct-of-arrays table indexed by a compact
// Index handle: parallel slices hold each object's id, size, page count
// and first extent, with overflow extents spilled to a side slice. The
// handle is minted at creation and stays valid until the object is
// deleted, and every operation addresses the object by it. The store
// keeps no id index: the cluster's directory (its owner and slot
// columns) resolves an id to its device and handle, and the store's
// slots are the one record of which object each handle holds.
package object

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"edm/internal/flash"
	"edm/internal/sim"
)

// ID is a cluster-wide unique object identifier.
type ID int64

// Index is a store-local dense handle for a resident object. Handles
// are minted by CreateIndexed, stay stable until the object is deleted,
// and are recycled afterwards; they index the store's internal tables
// directly, so every *At method costs a slice access.
type Index int32

// NoIndex is the invalid handle.
const NoIndex Index = -1

// ErrNoSpace is returned when the store cannot allocate logical pages
// for a new object without exceeding the SSD's live-data headroom.
var ErrNoSpace = errors.New("object: no space for object")

// extent is a contiguous run of logical pages.
type extent struct {
	start int64 // first LPA
	pages int64
}

// Store manages the objects resident on one SSD. It is single-threaded
// like everything on the DES.
type Store struct {
	ssd      *flash.SSD
	pageSize int64

	// Object table: parallel slices indexed by Index. ext0 holds the
	// first extent inline (after warm-up almost every object has exactly
	// one); spill holds any further extents.
	ids    []ID
	sizes  []int64
	npages []int64
	ext0   []extent
	spill  [][]extent
	inUse  []bool

	freeSlots []Index
	live      int

	// sorted caches the live slots in ascending-ID order; every
	// create/delete invalidates it. Snapshot and audit walks depend on
	// this order (float sums over it must be stable across refactors).
	sorted   []Index
	sortedOK bool

	free     []extent // free logical space, sorted by start, coalesced
	usedPgs  int64
	allocBuf []extent // scratch for alloc results, reused across calls
}

// NewStore wraps an SSD. The usable logical space is the SSD's
// MaxLivePages, keeping GC headroom out of reach of object allocation.
func NewStore(ssd *flash.SSD) *Store {
	st := &Store{}
	st.Reset(ssd)
	return st
}

// Reset makes st the empty store NewStore(ssd) builds, in st's buffers.
func (st *Store) Reset(ssd *flash.SSD) {
	empty := Store{pageSize: ssd.Config().PageSize, free: []extent{{start: 0, pages: ssd.MaxLivePages()}}}
	empty.Clone(ssd, st)
}

// Clone returns a deep copy of the store bound to ssd, which must be a
// copy of st's device (flash.SSD.Clone), in dst's buffers when dst is
// non-nil (dst is overwritten, so it must belong to no live store) and
// in new ones otherwise. st is only read: the id-sorted cache is copied
// when it is valid and otherwise left for the copy to fill, and the
// copy shares no memory with st.
func (st *Store) Clone(ssd *flash.SSD, dst *Store) *Store {
	if dst == nil {
		dst = &Store{}
	}
	spill := slices.Grow(dst.spill[:0], len(st.spill))[:len(st.spill)]
	for i, sp := range st.spill {
		spill[i] = append(spill[i][:0], sp...)
	}
	*dst = Store{
		ssd:       ssd,
		pageSize:  st.pageSize,
		ids:       append(dst.ids[:0], st.ids...),
		sizes:     append(dst.sizes[:0], st.sizes...),
		npages:    append(dst.npages[:0], st.npages...),
		ext0:      append(dst.ext0[:0], st.ext0...),
		spill:     spill,
		inUse:     append(dst.inUse[:0], st.inUse...),
		freeSlots: append(dst.freeSlots[:0], st.freeSlots...),
		live:      st.live,
		sorted:    dst.sorted[:0],
		free:      append(dst.free[:0], st.free...),
		usedPgs:   st.usedPgs,
		allocBuf:  dst.allocBuf[:0],
	}
	if st.sortedOK {
		dst.sorted, dst.sortedOK = append(dst.sorted, st.sorted...), true
	}
	return dst
}

// SSD returns the underlying device.
func (st *Store) SSD() *flash.SSD { return st.ssd }

// PageSize returns the device page size in bytes.
func (st *Store) PageSize() int64 { return st.pageSize }

// Len returns the number of resident objects.
func (st *Store) Len() int { return st.live }

// UsedPages returns logical pages allocated to objects.
func (st *Store) UsedPages() int64 { return st.usedPgs }

// CapacityPages returns the usable logical page count.
func (st *Store) CapacityPages() int64 { return st.ssd.MaxLivePages() }

// IDAt returns the id of the object at idx.
func (st *Store) IDAt(idx Index) ID { return st.ids[idx] }

// Holds returns the id of the object at idx and whether idx is a live
// slot; it reports false for a freed slot or one past the table.
func (st *Store) Holds(idx Index) (ID, bool) {
	if idx < 0 || int(idx) >= len(st.ids) || !st.inUse[idx] {
		return 0, false
	}
	return st.ids[idx], true
}

// SizeAt returns the size in bytes of the object at idx.
func (st *Store) SizeAt(idx Index) int64 { return st.sizes[idx] }

// PagesAt returns the logical page count of the object at idx.
func (st *Store) PagesAt(idx Index) int64 { return st.npages[idx] }

// SortedIndices returns the live handles in ascending object-id order.
// The slice is owned by the store and valid until the next create or
// delete; callers must not modify or retain it.
func (st *Store) SortedIndices() []Index {
	if !st.sortedOK {
		st.sorted = st.sorted[:0]
		for i := range st.ids {
			if st.inUse[i] {
				st.sorted = append(st.sorted, Index(i))
			}
		}
		sort.Slice(st.sorted, func(a, b int) bool {
			return st.ids[st.sorted[a]] < st.ids[st.sorted[b]]
		})
		st.sortedOK = true
	}
	return st.sorted
}

// IDs returns the resident object ids in ascending order.
func (st *Store) IDs() []ID {
	slots := st.SortedIndices()
	ids := make([]ID, len(slots))
	for i, s := range slots {
		ids[i] = st.ids[s]
	}
	return ids
}

func (st *Store) pagesFor(bytes int64) int64 {
	if bytes <= 0 {
		return 1 // even empty objects occupy one page of metadata+data
	}
	return (bytes + st.pageSize - 1) / st.pageSize
}

// newSlot returns a free table slot, growing the table when none is
// recycled.
func (st *Store) newSlot() Index {
	if n := len(st.freeSlots); n > 0 {
		idx := st.freeSlots[n-1]
		st.freeSlots = st.freeSlots[:n-1]
		return idx
	}
	st.ids = append(st.ids, 0)
	st.sizes = append(st.sizes, 0)
	st.npages = append(st.npages, 0)
	st.ext0 = append(st.ext0, extent{})
	st.spill = append(st.spill, nil)
	st.inUse = append(st.inUse, false)
	return Index(len(st.ids) - 1)
}

// CreateIndexed allocates an object of the given size without writing
// its data (use PopulateAt for that) and returns its dense handle. It
// fails with ErrNoSpace if the allocation would exceed the usable
// logical space. The store does not check id for a copy it already
// holds: the caller's directory decides where an object may be created.
func (st *Store) CreateIndexed(id ID, size int64) (Index, error) {
	need := st.pagesFor(size)
	exts, ok := st.alloc(need)
	if !ok {
		return NoIndex, fmt.Errorf("%w: %d pages for object %d", ErrNoSpace, need, id)
	}
	idx := st.newSlot()
	st.ids[idx] = id
	st.sizes[idx] = size
	st.npages[idx] = need
	st.ext0[idx] = exts[0]
	st.spill[idx] = append(st.spill[idx][:0], exts[1:]...)
	st.inUse[idx] = true
	st.live++
	st.usedPgs += need
	st.sortedOK = false
	return idx, nil
}

// PopulateAt writes every page of the object at idx (pre-creation fill,
// §V.A: files are "pre-created and populated with sufficient data"),
// returning the accumulated device latency.
func (st *Store) PopulateAt(idx Index) (sim.Time, error) {
	var lat sim.Time
	e := st.ext0[idx]
	l, err := st.ssd.WriteN(e.start, int(e.pages))
	lat += l
	if err != nil {
		return lat, err
	}
	for _, e := range st.spill[idx] {
		l, err := st.ssd.WriteN(e.start, int(e.pages))
		lat += l
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// DeleteIndexed removes the object at idx, trimming its pages on the
// device; the handle is recycled for later creations.
func (st *Store) DeleteIndexed(idx Index) {
	e := st.ext0[idx]
	st.ssd.TrimN(e.start, int(e.pages))
	st.release(e)
	st.usedPgs -= e.pages
	for _, e := range st.spill[idx] {
		st.ssd.TrimN(e.start, int(e.pages))
		st.release(e)
		st.usedPgs -= e.pages
	}
	st.inUse[idx] = false
	st.spill[idx] = st.spill[idx][:0]
	st.freeSlots = append(st.freeSlots, idx)
	st.live--
	st.sortedOK = false
}

// WriteAt services a byte-range write to the object at idx, growing the
// object when the range extends past its current size. Returns the
// device latency.
func (st *Store) WriteAt(idx Index, off, length int64) (sim.Time, error) {
	if length <= 0 {
		return 0, nil
	}
	if end := off + length; end > st.sizes[idx] {
		if err := st.growAt(idx, end); err != nil {
			return 0, err
		}
	}
	first := off / st.pageSize
	count := (off+length-1)/st.pageSize - first + 1
	var lat sim.Time
	base := int64(0)
	for i, n := 0, st.extentCount(idx); i < n && count > 0; i++ {
		e := st.extentAt(idx, i)
		if first >= base+e.pages {
			base += e.pages
			continue
		}
		startIn := int64(0)
		if first > base {
			startIn = first - base
		}
		run := e.pages - startIn
		if run > count {
			run = count
		}
		l, err := st.ssd.WriteN(e.start+startIn, int(run))
		lat += l
		if err != nil {
			return lat, err
		}
		first += run
		count -= run
		base += e.pages
	}
	if count > 0 {
		return lat, fmt.Errorf("object: page walk ran past object end (%d pages unvisited)", count)
	}
	return lat, nil
}

// ReadAt services a byte-range read of the object at idx, clamped to
// the object's size.
func (st *Store) ReadAt(idx Index, off, length int64) (sim.Time, error) {
	size := st.sizes[idx]
	if off >= size || length <= 0 {
		return 0, nil
	}
	if off+length > size {
		length = size - off
	}
	first := off / st.pageSize
	count := (off+length-1)/st.pageSize - first + 1
	var lat sim.Time
	base := int64(0)
	for i, n := 0, st.extentCount(idx); i < n && count > 0; i++ {
		e := st.extentAt(idx, i)
		if first >= base+e.pages {
			base += e.pages
			continue
		}
		startIn := int64(0)
		if first > base {
			startIn = first - base
		}
		run := e.pages - startIn
		if run > count {
			run = count
		}
		lat += st.ssd.ReadN(e.start+startIn, int(run))
		first += run
		count -= run
		base += e.pages
	}
	if count > 0 {
		return lat, fmt.Errorf("object: page walk ran past object end (%d pages unvisited)", count)
	}
	return lat, nil
}

// extentCount returns the number of extents backing the object at idx.
func (st *Store) extentCount(idx Index) int { return 1 + len(st.spill[idx]) }

// extentAt returns the object's i-th extent (0 is the inline extent).
func (st *Store) extentAt(idx Index, i int) extent {
	if i == 0 {
		return st.ext0[idx]
	}
	return st.spill[idx][i-1]
}

// growAt extends the object to newSize bytes, allocating extra extents.
func (st *Store) growAt(idx Index, newSize int64) error {
	have := st.npages[idx]
	need := st.pagesFor(newSize)
	if need > have {
		exts, ok := st.alloc(need - have)
		if !ok {
			return fmt.Errorf("%w: grow by %d pages", ErrNoSpace, need-have)
		}
		st.spill[idx] = append(st.spill[idx], exts...)
		st.npages[idx] = need
		st.usedPgs += need - have
	}
	st.sizes[idx] = newSize
	return nil
}

// alloc reserves n logical pages, possibly across several extents
// (first-fit, splitting free runs). It returns ok=false, allocating
// nothing, when fewer than n pages are free. The returned slice is the
// store's scratch buffer, valid until the next alloc call.
func (st *Store) alloc(n int64) ([]extent, bool) {
	var freeTotal int64
	for _, e := range st.free {
		freeTotal += e.pages
	}
	if freeTotal < n {
		return nil, false
	}
	got := st.allocBuf[:0]
	for i := 0; i < len(st.free) && n > 0; {
		e := &st.free[i]
		take := e.pages
		if take > n {
			take = n
		}
		got = append(got, extent{start: e.start, pages: take})
		e.start += take
		e.pages -= take
		n -= take
		if e.pages == 0 {
			st.free = append(st.free[:i], st.free[i+1:]...)
			continue
		}
		i++
	}
	if n != 0 {
		panic("object: allocator accounting mismatch")
	}
	st.allocBuf = got
	return got, true
}

// release returns an extent to the free list, coalescing neighbours.
func (st *Store) release(e extent) {
	i := sort.Search(len(st.free), func(i int) bool { return st.free[i].start >= e.start })
	st.free = append(st.free, extent{})
	copy(st.free[i+1:], st.free[i:])
	st.free[i] = e
	// Coalesce with successor then predecessor.
	if i+1 < len(st.free) && st.free[i].start+st.free[i].pages == st.free[i+1].start {
		st.free[i].pages += st.free[i+1].pages
		st.free = append(st.free[:i+1], st.free[i+2:]...)
	}
	if i > 0 && st.free[i-1].start+st.free[i-1].pages == st.free[i].start {
		st.free[i-1].pages += st.free[i].pages
		st.free = append(st.free[:i], st.free[i+1:]...)
	}
}

// CheckInvariants validates allocator and table bookkeeping (tests).
func (st *Store) CheckInvariants() error {
	var used int64
	live := 0
	for i := range st.ids {
		if !st.inUse[i] {
			continue
		}
		live++
		idx := Index(i)
		var pages int64
		for j, n := 0, st.extentCount(idx); j < n; j++ {
			pages += st.extentAt(idx, j).pages
		}
		if pages != st.npages[i] {
			return fmt.Errorf("object: slot %d caches %d pages, extents hold %d", i, st.npages[i], pages)
		}
		used += pages
	}
	if live != st.live {
		return fmt.Errorf("object: live=%d, actual %d", st.live, live)
	}
	if used != st.usedPgs {
		return fmt.Errorf("object: usedPgs=%d, actual %d", st.usedPgs, used)
	}
	var free int64
	for i, e := range st.free {
		free += e.pages
		if e.pages <= 0 {
			return fmt.Errorf("object: empty free extent at %d", i)
		}
		if i > 0 && st.free[i-1].start+st.free[i-1].pages > e.start {
			return fmt.Errorf("object: free list overlap/order at %d", i)
		}
	}
	if used+free != st.ssd.MaxLivePages() {
		return fmt.Errorf("object: used %d + free %d != capacity %d", used, free, st.ssd.MaxLivePages())
	}
	return nil
}
