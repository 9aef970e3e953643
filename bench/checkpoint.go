package main

import (
	"bytes"
	"context"

	"edm"
)

// checkpointEvery is the frame cadence, in fired events, of the
// checkpoint workload.
const checkpointEvery = 10000

// checkpoint is the path edmd takes for every job (always-on frames)
// and every preempted or recovered job (resume). One unit is an HDF
// midpoint run at scale 40 with a frame every 10000 events, then
// edm.Resume from the stream cut at a frame about ¾ of the way in; the
// resumed result must equal the uninterrupted one byte for byte. Resume
// replays from event 0, so its cost grows with the cut position.
type checkpoint struct{ seed uint64 }

func (w *checkpoint) spec(i int) edm.Spec {
	return edm.Spec{
		Workload: profileNames[i%len(profileNames)],
		OSDs:     16,
		Policy:   edm.PolicyHDF,
		Scale:    40,
		Seed:     w.seed + uint64(i/len(profileNames)),
	}
}

func (w *checkpoint) start(context.Context) error { return nil }
func (w *checkpoint) stop()                       {}

func (w *checkpoint) unit(ctx context.Context, i int, tr *tracer) outcome {
	spec := w.spec(i)
	o := outcome{key: traceKey{spec.Workload, spec.Scale, spec.Seed}}
	var frames frameBuf
	if tr == nil {
		o.res, o.err = edm.Run(ctx, spec, edm.WithCheckpoint(&frames, checkpointEvery))
		if o.err == nil {
			var cut []byte
			if cut, o.err = frames.cut(); o.err == nil {
				o.extra, o.err = edm.Resume(ctx, bytes.NewReader(cut))
			}
		}
	} else {
		id := tr.begin("unit", 0)
		s := steps{tr, id, &o.ly}
		o.res, o.err = s.run(ctx, spec, &frames, checkpointEvery)
		if o.err == nil {
			var cut []byte
			if cut, o.err = frames.cut(); o.err == nil {
				o.extra, o.err = s.resume(ctx, cut)
			}
		}
		tr.end(id)
	}
	o.ly.frames, o.ly.frameBytes = len(frames.ends), int64(frames.Len())
	return o
}

func (w *checkpoint) verify(ctx context.Context, outs []*outcome) {
	for _, o := range outs {
		if o.res != nil && o.extra != nil && !sameResult(o.res, o.extra) {
			o.fail("resumed result differs from the uninterrupted run")
		}
	}
	checkAgainst(outs, sample(w.seed, 4, unitPrefix), func(i int) (*edm.Result, error) {
		return checkedRun(ctx, w.spec(i))
	})
}

func (w *checkpoint) digest(outs []*outcome) string { return resultDigest(outs) }
