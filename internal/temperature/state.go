package temperature

import "edm/internal/fnvx"

// StateDigest seals the tracker's raw per-slot state in one word. It
// reads the SoA columns as they are — no lazy decay is forced — because
// temperature decay uses a lazy one-shot fold whose result can differ
// from the eager path by an ulp: forcing a fold during capture would
// make a checkpointed run diverge from an uncheckpointed one. Reading raw (epoch, temp, accumulator) triples
// instead keeps capture strictly observation-only while still sealing
// the complete state (the raw triple determines every future folded
// value bit-for-bit).
func (t *Tracker) StateDigest() uint64 {
	h := fnvx.New().Int64(int64(t.interval)).Int(t.live).Int(len(t.ids))
	for i := range t.ids {
		if !t.used[i] {
			h = h.Bool(false)
			continue
		}
		h = h.Bool(true).
			Int64(int64(t.ids[i])).
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
