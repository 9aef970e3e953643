package main

import (
	"context"

	"edm"
)

// replay is the call every other path sits on: one unit is edm.Run of
// a baseline replay (no migration, no checkpoint) on 16 OSDs at scale
// 20, the seven Harvard profiles in rotation, spec seed = seed + round.
// Trace generation is paid per call, as a library user pays it.
type replay struct{ seed uint64 }

func (w *replay) spec(i int) edm.Spec {
	return edm.Spec{
		Workload: profileNames[i%len(profileNames)],
		OSDs:     16,
		Policy:   edm.PolicyBaseline,
		Scale:    20,
		Seed:     w.seed + uint64(i/len(profileNames)),
	}
}

func (w *replay) start(context.Context) error { return nil }
func (w *replay) stop()                       {}

func (w *replay) unit(ctx context.Context, i int, tr *tracer) outcome {
	spec := w.spec(i)
	o := outcome{key: traceKey{spec.Workload, spec.Scale, spec.Seed}}
	if tr == nil {
		o.res, o.err = edm.Run(ctx, spec)
	} else {
		id := tr.begin("unit", 0)
		o.res, o.err = steps{tr, id, &o.ly}.run(ctx, spec, nil, 0)
		tr.end(id)
	}
	return o
}

func (w *replay) verify(ctx context.Context, outs []*outcome) {
	checkAgainst(outs, sample(w.seed, 4, unitPrefix), func(i int) (*edm.Result, error) {
		return checkedRun(ctx, w.spec(i))
	})
}

func (w *replay) digest(outs []*outcome) string { return resultDigest(outs) }
