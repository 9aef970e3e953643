package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"edm"
	"edm/internal/experiment"
	"edm/internal/trace"
)

// sweep is the paper's evaluation path: one unit is one cell of the
// figure matrix (7 traces × {16, 20} OSDs × 4 policies at scale 20) run
// by experiment.RunCell, with the HDF/CDF/CMT
// midpoint migration, the trace memo and the scratch pool on the clock.
// Matrix g has seed seed+g, so every matrix generates its seven traces
// on its first cells and hits the memo on the rest: a run that ends a
// matrix later does the same kind of work per cell. Figs. 5, 6 and 8
// are rendered from the merged cells as edmbench -exp fig5 does.
type sweep struct {
	seed uint64
	memo traceMemo // the traced run's stand-in for the experiment memo
}

func (w *sweep) start(context.Context) error { return nil }
func (w *sweep) stop()                       {}

func (w *sweep) unit(ctx context.Context, i int, tr *tracer) outcome {
	cs := cellSpec(w.seed, i)
	o := outcome{key: traceKey{cs.Trace, cs.Scale, cs.Seed}}
	if tr == nil {
		o.res, o.err = experiment.RunCell(ctx, cs)
		return o
	}
	// RunCell in steps: the memoized trace, then edm.NewCluster and the
	// replay with a spec equal to the cell's cluster configuration.
	id := tr.begin("unit", 0)
	s := steps{tr, id, &o.ly}
	spec := cellRun(cs)
	spec.Trace, o.err = w.memo.get(o.key, s)
	if o.err == nil {
		o.res, o.err = s.run(ctx, spec, nil, 0)
	}
	tr.end(id)
	return o
}

func (w *sweep) verify(ctx context.Context, outs []*outcome) {
	checkAgainst(outs, sample(w.seed, 4, 2*cells), func(i int) (*edm.Result, error) {
		return checkedRun(ctx, cellRun(cellSpec(w.seed, i)))
	})
}

func (w *sweep) digest(outs []*outcome) string { return tableDigest(w.seed, outs) }

// cellSpec is unit i of a sweep: cell i mod 56 of matrix i / 56, which
// has seed seed + i / 56.
func cellSpec(seed uint64, i int) experiment.CellSpec {
	return experiment.MatrixSpecs(experiment.Options{Scale: 20, Seed: matrixSeed(seed, i/cells)})[i%cells]
}

func matrixSeed(seed uint64, g int) uint64 { return seed + uint64(g) }

// cellRun is the edm.Spec that builds the cluster RunCell builds for cs.
func cellRun(cs experiment.CellSpec) edm.Spec {
	return edm.Spec{
		Workload:       cs.Trace,
		Scale:          cs.Scale,
		OSDs:           cs.OSDs,
		Groups:         4,
		ObjectsPerFile: 4,
		Policy:         cs.Policy,
		Lambda:         cs.Lambda,
		Seed:           cs.Seed,
	}
}

// tableDigest is SHA-256 over the Fig. 5, 6 and 8 tables of each whole
// matrix in outs, rendered from the units' results.
func tableDigest(seed uint64, outs []*outcome) string {
	h := sha256.New()
	for g := 0; (g+1)*cells <= len(outs); g++ {
		opts := experiment.Options{Scale: 20, Seed: matrixSeed(seed, g)}
		merged := make([]experiment.Cell, cells)
		for j := range merged {
			o := outs[g*cells+j]
			merged[j] = cellSpec(seed, g*cells+j).Cell(o.res, o.err)
		}
		h.Write([]byte(experiment.Fig5(opts, merged).Format()))
		h.Write([]byte(experiment.Fig6(opts, merged).Format()))
		h.Write([]byte(experiment.Fig8(opts, merged).Format()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceMemo memoizes generated traces by (name, scale, seed), like the
// experiment harness's memo, for the traced sweep; a miss records the
// generation as a trace.generate span of the unit that missed.
type traceMemo struct {
	mu     sync.Mutex
	traces map[traceKey]*trace.Trace
}

func (m *traceMemo) get(k traceKey, s steps) (*trace.Trace, error) {
	m.mu.Lock()
	tr := m.traces[k]
	m.mu.Unlock()
	if tr != nil {
		return tr, nil
	}
	err := s.span("trace.generate", func() (err error) {
		tr, err = k.build()
		return err
	})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.traces == nil {
		m.traces = make(map[traceKey]*trace.Trace)
	}
	m.traces[k] = tr
	m.mu.Unlock()
	return tr, nil
}
