package object

import "edm/internal/fnvx"

// StateDigest seals the store's full slot and allocation state in one
// word. It covers the per-slot columns
// (id, size, page count, every extent), the free-slot list, the free
// logical space map and the used-page counter — everything that shapes
// future allocations and device addressing. Capture is read-only.
func (st *Store) StateDigest() uint64 {
	h := fnvx.New().Int(st.live).Int(len(st.ids)).Int64(st.usedPgs)
	for i := range st.ids {
		if !st.inUse[i] {
			h = h.Bool(false)
			continue
		}
		h = h.Bool(true).
			Int64(int64(st.ids[i])).
			Int64(st.sizes[i]).
			Int64(st.npages[i]).
			Int64(st.ext0[i].start).
			Int64(st.ext0[i].pages)
		h = h.Int(len(st.spill[i]))
		for _, e := range st.spill[i] {
			h = h.Int64(e.start).Int64(e.pages)
		}
	}
	h = h.Int(len(st.freeSlots))
	for _, s := range st.freeSlots {
		h = h.Int(int(s))
	}
	h = h.Int(len(st.free))
	for _, e := range st.free {
		h = h.Int64(e.start).Int64(e.pages)
	}
	return h.Sum()
}
