package edm

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"edm/internal/check"
	"edm/internal/cluster"
	"edm/internal/sim"
	"edm/internal/snapshot"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// DefaultCheckpointEvery is the checkpoint cadence (in fired simulation
// events) used when WithCheckpoint is given no explicit cadence and the
// spec sets none.
const DefaultCheckpointEvery = 100_000

// demandPollInterval bounds how many fired events pass between polls of
// a CheckpointTrigger: fine enough that a demand checkpoint lands within
// microseconds of wall time, coarse enough to stay off the hot path.
// The trigger is polled whenever the fired count reaches a multiple of
// it or of the frame cadence.
const demandPollInterval = 4096

// RunOption customises a Run or Resume beyond what Spec captures: the
// pieces that are process-local (writers, recorders, triggers) and
// therefore cannot ride along in the serializable spec.
type RunOption func(*runOptions)

type runOptions struct {
	ckW         io.Writer
	ckEvery     uint64
	trigger     *CheckpointTrigger
	rec         telemetry.Recorder
	metrics     *telemetry.Registry
	sampleEvery sim.Time
	check       bool
}

// WithCheckpoint makes the run write digest-sealed snapshot frames to w
// every `every` fired simulation events (0 takes Spec.CheckpointEvery,
// then DefaultCheckpointEvery). Each frame is emitted with a single
// Write call; appending them to one file yields a stream Resume reads
// with ReadLast semantics — a torn final frame after a crash costs at
// most the newest checkpoint. Checkpoint capture is read-only, so a
// checkpointed run stays byte-identical to an uncheckpointed one.
func WithCheckpoint(w io.Writer, every uint64) RunOption {
	return func(o *runOptions) { o.ckW, o.ckEvery = w, every }
}

// CheckpointTrigger requests out-of-band checkpoints of a running
// simulation from another goroutine. Request is safe for concurrent
// use; the run polls the trigger between simulation events, whenever
// the fired count reaches a multiple of demandPollInterval or of the
// frame cadence, and writes one extra frame per request. Demand frames
// do not perturb the run or shift the cadence frames — capture is
// read-only and cadence positions are absolute.
type CheckpointTrigger struct{ flag atomic.Bool }

// Request asks the run to write a checkpoint at the next poll point.
func (t *CheckpointTrigger) Request() { t.flag.Store(true) }

func (t *CheckpointTrigger) take() bool { return t.flag.Swap(false) }

// WithCheckpointTrigger installs t on the run; requires WithCheckpoint
// for the frames to go anywhere.
func WithCheckpointTrigger(t *CheckpointTrigger) RunOption {
	return func(o *runOptions) { o.trigger = t }
}

// WithTelemetry installs rec as the run's event recorder — the one way
// to trace a run. A recorder only observes: it never changes the result
// or a checkpoint frame, so a Resume re-attaches one (or another, or
// none) to regenerate the whole run's event log.
func WithTelemetry(rec telemetry.Recorder) RunOption {
	return func(o *runOptions) { o.rec = rec }
}

// WithMetrics attaches reg as the run's metric registry — the one way
// to collect metric columns — sampled every `every` of virtual time
// (zero takes 30 seconds). The cadence belongs to this call, not to
// the spec: samples come from an engine hook between events, so they
// never change the result or a checkpoint frame, and a Resume picks its
// own cadence when it re-attaches a registry.
func WithMetrics(reg *telemetry.Registry, every sim.Time) RunOption {
	return func(o *runOptions) { o.metrics, o.sampleEvery = reg, every }
}

// WithCheck runs the simulation under full invariant checking: the
// event-stream checker wraps the configured recorder, and once the run
// drains check.Audit merges its report with the cluster's state audit
// and cross-checks the two. Any violation turns into a non-nil error
// from Run/Resume. Checking is a property of the run, not of the spec:
// nothing of it reaches a checkpoint frame.
func WithCheck() RunOption {
	return func(o *runOptions) { o.check = true }
}

// runEnv is a wired, ready-to-run cluster plus the pieces that need
// post-run work: the option-driven checker and a donated scratch.
type runEnv struct {
	cl      *cluster.Cluster
	ck      *check.Checker
	scratch *cluster.Scratch
	hook    func(sim.Time) error // the checkpoint hook, nil without a writer
}

// setup builds the trace and the cluster and applies every option:
// the shared first half of Run and Resume.
func setup(ctx context.Context, spec Spec, o *runOptions) (*runEnv, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := BuildTrace(spec)
	if err != nil {
		return nil, err
	}
	// Trace generation and cluster construction (with its warm-up fill)
	// are not interruptible internally, so bound the post-cancellation
	// work by re-checking at each phase boundary.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := &runEnv{scratch: spec.Cluster.Scratch}
	// A frame embeds the replay coordinates: the spec with its trace
	// extracted and the frame cadence set (nothing an observer or a
	// trigger set), and an explicit trace's bytes; a generated trace
	// needs none, the generator being deterministic in the spec.
	var every uint64
	var specJSON, traceData []byte
	if o.ckW != nil {
		every = cmp.Or(o.ckEvery, spec.CheckpointEvery, spec.Cluster.CheckpointEvery, DefaultCheckpointEvery)
		spec.CheckpointEvery, spec.Cluster.CheckpointEvery = every, every
		snapSpec := spec
		snapSpec.Trace = nil
		if specJSON, err = json.Marshal(snapSpec); err != nil {
			return nil, fmt.Errorf("edm: encoding spec for checkpoints: %w", err)
		}
		if spec.Trace != nil {
			var b bytes.Buffer
			if err := tr.Encode(&b); err != nil {
				return nil, fmt.Errorf("edm: encoding trace for checkpoints: %w", err)
			}
			traceData = b.Bytes()
		}
	}
	spec.Trace = tr

	cl, err := NewCluster(spec)
	if err != nil {
		return nil, err
	}
	env.cl = cl
	rec := o.rec
	var ck *check.Checker
	if o.check {
		ck = check.Wrap(rec)
		check.Bind(ck, cl)
		rec = ck
	}
	cl.SetRecorder(rec)
	if o.metrics != nil {
		cl.SetMetrics(o.metrics, o.sampleEvery)
	}
	if o.ckW != nil {
		w, trigger := o.ckW, o.trigger
		env.hook = func(sim.Time) error {
			demanded := trigger != nil && trigger.take()
			if cl.Engine().Fired()%every != 0 && !demanded {
				return nil
			}
			return snapshot.Capture(cl, specJSON, traceData).EncodeTo(w)
		}
		cl.SetCheckpoint(env.hook)
		if trigger != nil {
			cl.SetCheckpointPoll(demandPollInterval)
		}
	}
	env.ck = ck
	return env, nil
}

// finish is the post-run half of Run and Resume: the WithCheck audit,
// then the run's grown buffers go back into a donated Scratch so the
// caller can recycle them into its next run.
func (e *runEnv) finish() error {
	if e.ck != nil {
		rep := check.Audit(e.cl, e.ck)
		if err := rep.Err(); err != nil {
			return fmt.Errorf("edm: %w\n%s", err, rep)
		}
	}
	if e.scratch != nil {
		*e.scratch = *e.cl.Release()
	}
	return nil
}

// Run executes the spec end to end under ctx and returns the result.
// Options attach the process-local concerns a serializable Spec cannot
// carry: checkpoint writers (WithCheckpoint, WithCheckpointTrigger),
// observers (WithTelemetry, WithMetrics), and invariant checking
// (WithCheck).
//
// Cancellation is observed by the discrete-event engine within
// sim.CancelCheckInterval events; the returned error then wraps
// ctx.Err(). A run that completes is byte-identical across calls with
// the same spec and seed — neither the context plumbing nor checkpoint
// capture touches the simulation state.
func Run(ctx context.Context, spec Spec, opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	env, err := setup(ctx, spec, &o)
	if err != nil {
		return nil, err
	}
	res, err := env.cl.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := env.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// Resume continues a checkpointed run from the last valid frame in r
// and returns the completed run's result — byte-identical to what the
// uninterrupted run would have produced, including regenerated
// telemetry (the resume replays the prefix with the recorder attached,
// so event logs and metric columns cover the whole run, not just the
// tail).
//
// The snapshot's embedded spec rebuilds the cluster; the run is then
// fast-forwarded deterministically to the checkpoint's event count and
// hard-verified against the sealed state capture before continuing.
// Divergence — a changed binary, a different trace, nondeterminism —
// fails loudly rather than continuing from the wrong state. Options
// apply as in Run; pass WithCheckpoint again to keep checkpointing the
// continuation (cadence frames land at the same absolute event counts
// as an uninterrupted run's).
func Resume(ctx context.Context, r io.Reader, opts ...RunOption) (*Result, error) {
	snap, err := snapshot.ReadLast(r)
	if err != nil {
		return nil, fmt.Errorf("edm: %w", err)
	}
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	var spec Spec
	if err := json.Unmarshal(snap.SpecJSON, &spec); err != nil {
		return nil, fmt.Errorf("edm: decoding checkpoint spec: %w", err)
	}
	if len(snap.TraceData) > 0 {
		tr, err := trace.Decode(bytes.NewReader(snap.TraceData))
		if err != nil {
			return nil, fmt.Errorf("edm: decoding checkpoint trace: %w", err)
		}
		spec.Trace = tr
	}
	env, err := setup(ctx, spec, &o)
	if err != nil {
		return nil, err
	}
	if err := env.cl.FastForward(ctx, snap.Fired); err != nil {
		return nil, err
	}
	if err := snapshot.Verify(env.cl, snap); err != nil {
		return nil, err
	}
	res, err := env.cl.ContinueContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := env.finish(); err != nil {
		return nil, err
	}
	return res, nil
}
