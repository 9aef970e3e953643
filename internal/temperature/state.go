package temperature

import (
	"edm/internal/fnvx"
	"edm/internal/object"
)

// StateDigest seals the tracker's raw per-slot state in one word,
// reading which rows hold an object, and which, from st, the store
// whose slots address the tracker's rows. It reads the SoA columns as
// they are — no lazy decay is forced — because temperature decay uses a
// lazy one-shot fold whose result can differ from the eager path by an
// ulp: forcing a fold during capture would make a checkpointed run
// diverge from an uncheckpointed one. Reading raw (epoch, temp,
// accumulator) triples instead keeps capture strictly observation-only
// while still sealing the complete state (the raw triple determines
// every future folded value bit-for-bit). A row whose store slot is
// free is sealed as free, whatever counters it still holds: the next
// InstallAt clears them.
func (t *Tracker) StateDigest(st *object.Store) uint64 {
	h := fnvx.New().Int64(int64(t.interval)).Int(st.Len()).Int(len(t.epoch))
	for i := range t.epoch {
		id, ok := st.Holds(object.Index(i))
		if !ok {
			h = h.Bool(false)
			continue
		}
		h = h.Bool(true).
			Int64(int64(id)).
			Int64(t.epoch[i]).
			Float64(t.wTemp[i]).
			Float64(t.tTemp[i]).
			Float64(t.wAcc[i]).
			Float64(t.tAcc[i]).
			Float64(t.winW[i]).
			Float64(t.cumW[i]).
			Float64(t.cumR[i])
	}
	return h.Sum()
}
