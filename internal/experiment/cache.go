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
	traceOrder []traceKey // traceCache's keys, oldest first
)

// traceCacheLimit bounds the memoized traces, dropping the oldest
// first. Every experiment at one scale and seed touches eight traces
// (the seven Table I profiles and Fig. 3's random one), and a sweep
// over seeds never returns to an earlier seed's traces, so holding more
// only holds memory: a scale-20 trace set is tens of MB.
const traceCacheLimit = 8

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
	if _, ok := traceCache[key]; !ok {
		if len(traceOrder) == traceCacheLimit {
			delete(traceCache, traceOrder[0])
			traceOrder = traceOrder[1:]
		}
		traceCache[key] = tr
		traceOrder = append(traceOrder, key)
	}
	traceMu.Unlock()
	return tr, nil
}

// prefixMemo shares the policy-independent first half of sibling runs
// (edm.PrefixMemo): a cell's four policies replay one trace on one
// cluster and diverge only at the midpoint shuffle, so the first of
// them to reach the midpoint publishes a template there and the others
// continue forks of it. The memo keys on the trace pointer, which is
// why it sits next to the trace memo.
var prefixMemo edm.PrefixMemo

// scratchPool recycles per-run hot-path buffers (RAID access scratch,
// completion records, histogram storage) across the worker pool, so a
// 56-run matrix reuses memory instead of re-growing it 56 times: run
// donates one to edm.Run, which refills it when the run completes.
var scratchPool = sync.Pool{New: func() any { return &cluster.Scratch{} }}
