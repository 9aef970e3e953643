package remap

import (
	"sort"

	"edm/internal/fnvx"
	"edm/internal/object"
)

// StateDigest seals the table's live entries and cumulative counters in
// one word. Dense entries are walked in
// id order and overflow entries are sorted first, so the digest is
// independent of map iteration order. Capture is read-only.
func (t *Table) StateDigest() uint64 {
	h := fnvx.New().Int(t.entries).Int(t.peakEntries).
		Uint64(t.moves).Uint64(t.inserts).Uint64(t.updates).Uint64(t.removals)
	for id, osd := range t.dense {
		if osd != noEntry {
			h = h.Int(id).Int(int(osd))
		}
	}
	ids := make([]int64, 0, len(t.overflow))
	for id := range t.overflow {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h = h.Int64(id).Int(int(t.overflow[object.ID(id)]))
	}
	return h.Sum()
}
