// Package remap implements the remapping table manager (§III.C): the
// authoritative record of where migrated objects currently live. Because
// placement is hash-based, only objects that have moved away from their
// home SSD need entries; the table's size therefore grows with the
// number of distinct moved objects, which is why EDM prefers re-moving
// objects that already have entries.
//
// The table is a dense int32 array indexed directly by object id (ids
// are minted densely from file ids, so the array stays proportional to
// the object population), with a map fallback for ids outside the dense
// range. Lookup on the replay hot path is a bounds check plus one slice
// load.
package remap

import (
	"maps"
	"slices"
	"sort"

	"edm/internal/object"
)

// maxDense bounds the dense array so a single huge object id cannot
// balloon memory; ids at or beyond it fall back to the overflow map.
const maxDense = 1 << 22

// noEntry marks a dense slot with no remap entry.
const noEntry = int32(-1)

// Table maps moved objects to their current OSD. The zero value is not
// usable; construct with New.
type Table struct {
	dense    []int32             // dense[id] = OSD, or noEntry; ids in [0, len)
	overflow map[object.ID]int32 // ids < 0 or >= maxDense

	entries int // live entry count across dense + overflow

	moves       uint64 // total migration actions recorded
	inserts     uint64 // moves that created a new entry
	updates     uint64 // moves that rewrote an existing entry
	removals    uint64 // moves that sent an object back home
	peakEntries int
}

// New returns an empty table.
func New() *Table {
	return &Table{overflow: make(map[object.ID]int32)}
}

// Clone returns a deep copy of the table, counters included. t is only
// read, and the copy shares no memory with it.
func (t *Table) Clone() *Table {
	c := *t
	c.dense = slices.Clone(t.dense)
	c.overflow = maps.Clone(t.overflow)
	return &c
}

// Reserve pre-sizes the dense array for ids in [0, n), avoiding growth
// churn when the object population is known up front.
func (t *Table) Reserve(n int) {
	if n > maxDense {
		n = maxDense
	}
	for len(t.dense) < n {
		t.dense = append(t.dense, noEntry)
	}
}

// denseIdx reports whether id is addressable in the dense array (growing
// it on demand when grow is set).
func (t *Table) denseIdx(id object.ID, grow bool) (int, bool) {
	if id < 0 || id >= maxDense {
		return 0, false
	}
	i := int(id)
	if i >= len(t.dense) {
		if !grow {
			return 0, false
		}
		n := i + 1
		if m := 2 * len(t.dense); m > n {
			n = m
		}
		if n < 256 {
			n = 256
		}
		if n > maxDense {
			n = maxDense
		}
		for len(t.dense) < n {
			t.dense = append(t.dense, noEntry)
		}
	}
	return i, true
}

// Lookup returns the OSD currently holding the object, given its home
// (hash-placed) OSD.
func (t *Table) Lookup(id object.ID, home int) int {
	if i, ok := t.denseIdx(id, false); ok {
		if osd := t.dense[i]; osd != noEntry {
			return int(osd)
		}
		return home
	}
	if osd, ok := t.overflow[id]; ok {
		return int(osd)
	}
	return home
}

// Contains reports whether the object has a remap entry — i.e. lives
// away from home. EDM's selection policies prefer such objects because
// re-moving them does not grow the table.
func (t *Table) Contains(id object.ID) bool {
	if i, ok := t.denseIdx(id, false); ok {
		return t.dense[i] != noEntry
	}
	_, ok := t.overflow[id]
	return ok
}

// Record notes that the object migrated to dst. When dst equals the
// object's home the entry is dropped (the object is back where the hash
// function puts it).
func (t *Table) Record(id object.ID, home, dst int) {
	t.moves++
	if dst == home {
		if t.remove(id) {
			t.removals++
		}
		return
	}
	if t.set(id, int32(dst)) {
		t.inserts++
	} else {
		t.updates++
	}
	if t.entries > t.peakEntries {
		t.peakEntries = t.entries
	}
}

// set stores id→dst, reporting whether a new entry was created.
func (t *Table) set(id object.ID, dst int32) (created bool) {
	if i, ok := t.denseIdx(id, true); ok {
		created = t.dense[i] == noEntry
		t.dense[i] = dst
	} else {
		_, had := t.overflow[id]
		created = !had
		t.overflow[id] = dst
	}
	if created {
		t.entries++
	}
	return created
}

// remove drops id's entry, reporting whether one existed.
func (t *Table) remove(id object.ID) bool {
	if i, ok := t.denseIdx(id, false); ok {
		if t.dense[i] == noEntry {
			return false
		}
		t.dense[i] = noEntry
		t.entries--
		return true
	}
	if _, ok := t.overflow[id]; ok {
		delete(t.overflow, id)
		t.entries--
		return true
	}
	return false
}

// Len returns the current number of entries.
func (t *Table) Len() int { return t.entries }

// Stats describes table growth.
type Stats struct {
	Moves       uint64 // migration actions recorded
	Inserts     uint64 // actions that grew the table
	Updates     uint64 // actions that reused an entry
	Removals    uint64 // actions that shrank the table (moved home)
	Entries     int    // current size
	PeakEntries int    // high-water mark
}

// Stats returns a snapshot of the table's growth counters.
func (t *Table) Stats() Stats {
	return Stats{
		Moves:       t.moves,
		Inserts:     t.inserts,
		Updates:     t.updates,
		Removals:    t.removals,
		Entries:     t.entries,
		PeakEntries: t.peakEntries,
	}
}

// Entries returns the remapped object ids in ascending order (tests and
// selection policies needing deterministic iteration).
func (t *Table) Entries() []object.ID {
	ids := make([]object.ID, 0, t.entries)
	for i, osd := range t.dense {
		if osd != noEntry {
			ids = append(ids, object.ID(i))
		}
	}
	for id := range t.overflow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
