package edm

import (
	"bytes"
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

// demandPollInterval is how often (in fired events) the checkpoint hook
// polls for on-demand requests when a CheckpointTrigger is installed.
// Finer than the frame cadence so a demand checkpoint lands within
// microseconds of wall time, coarse enough to stay off the hot path.
const demandPollInterval = 4096

// RunOption customises a Run or Resume beyond what Spec captures: the
// pieces that are process-local (writers, recorders, triggers) and
// therefore cannot ride along in the serializable spec.
type RunOption func(*runOptions)

type runOptions struct {
	ckW     io.Writer
	ckEvery uint64
	trigger *CheckpointTrigger
	rec     telemetry.Recorder
	metrics *telemetry.Registry
	check   bool
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
// use; the run polls the trigger between simulation events (every
// demandPollInterval fired events) and writes one extra frame per
// request. Demand frames do not perturb the run or shift the cadence
// frames — capture is read-only and cadence positions are absolute.
type CheckpointTrigger struct{ flag atomic.Bool }

// Request asks the run to write a checkpoint at the next poll point.
func (t *CheckpointTrigger) Request() { t.flag.Store(true) }

func (t *CheckpointTrigger) take() bool { return t.flag.Swap(false) }

// WithCheckpointTrigger installs t on the run; requires WithCheckpoint
// for the frames to go anywhere.
func WithCheckpointTrigger(t *CheckpointTrigger) RunOption {
	return func(o *runOptions) { o.trigger = t }
}

// WithTelemetry installs rec as the run's event recorder (equivalent to
// setting Spec.Cluster.Recorder, which it overrides when both are set).
func WithTelemetry(rec telemetry.Recorder) RunOption {
	return func(o *runOptions) { o.rec = rec }
}

// WithMetrics attaches reg as the run's metric registry (equivalent to
// setting Spec.Cluster.Metrics, which it overrides when both are set).
// Like WithTelemetry, it exists so a Resume — whose spec comes from the
// frame with process-local handles stripped — can re-attach its sinks
// and regenerate complete metric columns.
func WithMetrics(reg *telemetry.Registry) RunOption {
	return func(o *runOptions) { o.metrics = reg }
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
	explicitTrace := spec.Trace != nil
	spec.Trace = tr

	if o.rec != nil {
		spec.Cluster.Recorder = o.rec
	}
	if o.metrics != nil {
		spec.Cluster.Metrics = o.metrics
	}
	var ck *check.Checker
	if o.check {
		ck = check.Wrap(spec.Cluster.Recorder)
		spec.Cluster.Recorder = ck
	}

	// Resolve the checkpoint cadence before the cluster is built — the
	// engine hook cadence is part of cluster.Config. `every` is the
	// frame cadence; `poll` is the hook cadence, finer when a demand
	// trigger needs sub-cadence responsiveness (every is then rounded
	// to a poll multiple so cadence frames still land exactly).
	var every, poll uint64
	if o.ckW != nil {
		every = o.ckEvery
		if every == 0 {
			every = spec.CheckpointEvery
		}
		if every == 0 {
			every = spec.Cluster.CheckpointEvery
		}
		if every == 0 {
			every = DefaultCheckpointEvery
		}
		poll = every
		if o.trigger != nil && poll > demandPollInterval {
			poll = demandPollInterval
			every -= every % poll
		}
		spec.CheckpointEvery = every
		spec.Cluster.CheckpointEvery = poll
	}

	cl, err := NewCluster(spec)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		check.Bind(ck, cl)
	}

	if o.ckW != nil {
		// The replay coordinates every frame embeds: the sanitized spec
		// (process-local handles stripped, trace extracted) and, for an
		// explicit trace, its serialized form. Generated workloads need
		// no trace bytes — the generator is deterministic in the spec.
		snapSpec := spec
		snapSpec.Trace = nil
		snapSpec.Cluster.Recorder = nil
		snapSpec.Cluster.Metrics = nil
		snapSpec.Cluster.Scratch = nil
		specJSON, err := json.Marshal(snapSpec)
		if err != nil {
			return nil, fmt.Errorf("edm: encoding spec for checkpoints: %w", err)
		}
		var traceData []byte
		if explicitTrace {
			var b bytes.Buffer
			if err := tr.Encode(&b); err != nil {
				return nil, fmt.Errorf("edm: encoding trace for checkpoints: %w", err)
			}
			traceData = b.Bytes()
		}
		w, trigger, frameEvery := o.ckW, o.trigger, every
		cl.SetCheckpoint(func(sim.Time) error {
			fired := cl.Engine().Fired()
			due := fired%frameEvery == 0
			if trigger != nil && trigger.take() {
				due = true
			}
			if !due {
				return nil
			}
			return snapshot.Capture(cl, specJSON, traceData).EncodeTo(w)
		})
	}
	return &runEnv{cl: cl, ck: ck, scratch: spec.Cluster.Scratch}, nil
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
// telemetry recorders (WithTelemetry), and invariant checking
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
