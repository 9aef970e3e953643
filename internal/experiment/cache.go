package experiment

import (
	"slices"
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

// traceEntry is one memoized trace; done is closed once tr and err are
// set, so callers that miss one key together wait for one generation.
type traceEntry struct {
	key  traceKey
	done chan struct{}
	tr   *trace.Trace
	err  error
}

var (
	traceMu    sync.Mutex
	traceCache []*traceEntry // newest last
)

// traceCacheLimit bounds the memoized traces, dropping the oldest
// first. Cells run in MatrixSpecs order, trace-major, and a cell's
// siblings replay the trace its prefix did, so the memo needs the
// trace of the cell being started and the one before it: two, in a
// one-cell-at-a-time sweep. A scale-20 trace set is tens of MB, and a
// scale-1 one hundreds.
const traceCacheLimit = 2

// generate is edm.BuildTrace; tests count generations through it.
var generate = edm.BuildTrace

// buildTrace materialises a named workload at the experiment scale and
// seed, memoizing the result: the matrix replays one generated trace
// under many policies and cluster sizes, and replay never mutates it.
// Concurrent callers of one key get one pointer from one generation.
func buildTrace(name string, opts Options) (*trace.Trace, error) {
	key := traceKey{name: name, scale: opts.Scale, seed: opts.Seed}
	traceMu.Lock()
	i := slices.IndexFunc(traceCache, func(e *traceEntry) bool { return e.key == key })
	if i >= 0 {
		e := traceCache[i]
		traceMu.Unlock()
		<-e.done
		return e.tr, e.err
	}
	e := &traceEntry{key: key, done: make(chan struct{})}
	if len(traceCache) == traceCacheLimit {
		traceCache = slices.Delete(traceCache, 0, 1)
	}
	traceCache = append(traceCache, e)
	traceMu.Unlock()

	e.tr, e.err = generate(edm.Spec{Workload: name, Scale: opts.Scale, Seed: opts.Seed})
	close(e.done)
	if e.err != nil {
		traceMu.Lock()
		traceCache = slices.DeleteFunc(traceCache, func(o *traceEntry) bool { return o == e })
		traceMu.Unlock()
	}
	return e.tr, e.err
}

// scratchPool recycles per-run buffers (RAID access scratch, completion
// records, histogram storage, and the device state of a finished run)
// across the worker pool, so a 56-run matrix reuses memory instead of
// re-growing it 56 times: run and startCell donate one, which the run
// refills when it completes.
var scratchPool = sync.Pool{New: func() any { return &cluster.Scratch{} }}
