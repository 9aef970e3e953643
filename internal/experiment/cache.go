package experiment

import (
	"sync"

	"edm"
	"edm/internal/cluster"
	"edm/internal/trace"
)

// The matrix experiments replay the same generated trace under four
// policies and several cluster sizes; regenerating it for every cell
// wastes a measurable slice of an edmbench sweep. Generated traces are
// deterministic in (name, scale, seed) and read-only during replay, so
// one copy is safely shared across concurrent runs.
type traceKey struct {
	name  string
	scale int
	seed  uint64
}

var (
	traceMu    sync.Mutex
	traceCache = map[traceKey]*trace.Trace{}
)

// traceCacheLimit bounds the memoized traces; an edmbench invocation
// touches well under this many (name, scale, seed) combinations, so the
// wipe-on-overflow policy exists only to keep pathological sweeps from
// accumulating memory.
const traceCacheLimit = 64

// buildTrace materialises a named workload at the experiment scale and
// seed, memoizing the result: the matrix replays one generated trace
// under many policies and cluster sizes, and replay never mutates it.
func buildTrace(name string, opts Options) (*trace.Trace, error) {
	key := traceKey{name: name, scale: opts.Scale, seed: opts.Seed}
	traceMu.Lock()
	tr := traceCache[key]
	traceMu.Unlock()
	if tr != nil {
		return tr, nil
	}
	tr, err := edm.BuildTrace(edm.Spec{Workload: name, Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	traceMu.Lock()
	if len(traceCache) >= traceCacheLimit {
		traceCache = map[traceKey]*trace.Trace{}
	}
	traceCache[key] = tr
	traceMu.Unlock()
	return tr, nil
}

// scratchPool recycles per-run hot-path buffers (RAID access scratch,
// completion records, histogram storage) across the worker pool, so a
// 56-run matrix reuses memory instead of re-growing it 56 times: run
// donates one to edm.Run, which refills it when the run completes.
var scratchPool = sync.Pool{New: func() any { return &cluster.Scratch{} }}
