package flash

import "edm/internal/fnvx"

// StateDigest seals the device's full FTL state in one word: the
// L2P/P2L maps, per-block metadata (state, valid count, write pointer,
// age stamp), the free list, both write frontiers, the GC buckets *in
// order* (victim selection breaks ties by bucket position, so bucket
// order is behaviorally significant state), the live-page count, the
// op clock and every wear counter. It walks the mapping tables
// (O(total pages)) — meant for checkpoints, not hot paths.
//
// Capture is strictly read-only: it mutates nothing, so a checkpointed
// run stays byte-identical to an uncheckpointed one.
func (s *SSD) StateDigest() uint64 {
	st := &s.stats
	h := fnvx.New().Int64(s.livePages).Uint64(s.opClock).
		Uint64(st.HostPageWrites).Uint64(st.HostPageReads).Uint64(st.GCPageMoves).
		Uint64(st.Erases).Uint64(st.TrimmedPages).Float64(st.victimValidSum)
	for _, v := range s.l2p {
		h = h.Int64(v)
	}
	for _, v := range s.p2l {
		h = h.Int64(v)
	}
	for i := range s.blocks {
		b := &s.blocks[i]
		h = h.Byte(byte(b.state)).Int(b.validCount).Int(b.writePtr).Uint64(b.lastWrite)
	}
	h = h.Int(len(s.free))
	for _, id := range s.free {
		h = h.Int(int(id))
	}
	h = h.Int(int(s.active)).Int(int(s.gcActive))
	for _, bucket := range s.buckets {
		h = h.Int(len(bucket))
		for _, id := range bucket {
			h = h.Int(int(id))
		}
	}
	return h.Sum()
}
