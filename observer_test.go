package edm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"edm/internal/sim"
	"edm/internal/snapshot"
	"edm/internal/telemetry"
)

// frameLog is a checkpoint writer that keeps each frame (one Write
// call) apart.
type frameLog [][]byte

func (l *frameLog) Write(p []byte) (int, error) {
	*l = append(*l, bytes.Clone(p))
	return len(p), nil
}

// cadence decodes the frames and returns those on the cadence (fired a
// multiple of every), dropping demand frames in between.
func (l frameLog) cadence(t *testing.T, every uint64) ([]*snapshot.Snapshot, [][]byte) {
	t.Helper()
	var snaps []*snapshot.Snapshot
	var raw [][]byte
	for _, f := range l {
		snap, err := snapshot.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Fired%every == 0 {
			snaps = append(snaps, snap)
			raw = append(raw, f)
		}
	}
	return snaps, raw
}

// completions counts completed operations, like edmd's progress
// recorder.
type completions struct {
	telemetry.Nop
	n *int
}

func (c completions) RequestComplete(telemetry.RequestComplete) { *c.n++ }

// observerSetup attaches one way of watching a run. attach builds fresh
// options for one run (recorders and registries belong to one run) and
// a function that renders what they observed once the run is over.
type observerSetup struct {
	name   string
	attach func() ([]RunOption, func() string)
}

var observerSetups = []observerSetup{
	{"none", func() ([]RunOption, func() string) {
		return nil, func() string { return "" }
	}},
	{"telemetry", func() ([]RunOption, func() string) {
		tr := telemetry.NewTracer(telemetry.ClassAll)
		return []RunOption{WithTelemetry(tr)}, func() string {
			var b bytes.Buffer
			if err := telemetry.WriteNDJSON(&b, tr.Events()); err != nil {
				return err.Error()
			}
			return b.String()
		}
	}},
	{"metrics", func() ([]RunOption, func() string) {
		reg := telemetry.NewRegistry()
		return []RunOption{WithMetrics(reg, 20*sim.Millisecond)}, func() string {
			var b bytes.Buffer
			if err := telemetry.WriteSnapshotsCSV(&b, reg); err != nil {
				return err.Error()
			}
			return b.String()
		}
	}},
	{"check", func() ([]RunOption, func() string) {
		return []RunOption{WithCheck()}, func() string { return "" }
	}},
	{"edmd", func() ([]RunOption, func() string) {
		// edmd's job setup: a progress recorder plus a demand trigger,
		// here requested before the run so it writes a demand frame at
		// its first poll.
		n := 0
		trig := &CheckpointTrigger{}
		trig.Request()
		return []RunOption{WithTelemetry(completions{n: &n}), WithCheckpointTrigger(trig)},
			func() string { return fmt.Sprint(n) }
	}},
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestObserverMatrix pins that watching a run never reaches its
// determinism path. One migrating spec runs under each observer setup
// with cadence checkpoints, and:
//   - every run's result equals the unobserved, uncheckpointed run's;
//   - every cadence frame is byte-identical across the setups, so its
//     sealed state is too;
//   - a frame written under any setup resumes under any other to the
//     same result, the resumed side's observer sees the whole run as
//     the uninterrupted run under that setup saw it, and the
//     continuation writes the uninterrupted run's cadence frames;
//   - checkpoint cadences 1, 7 and 10⁴ leave the result unchanged.
func TestObserverMatrix(t *testing.T) {
	ctx := context.Background()
	spec := quickSpec(PolicyHDF)
	spec.Scale = 200 // ~34k events: three cadence frames, one inside the migration window
	const every = 10_000
	bare, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, bare)

	type written struct {
		snaps    []*snapshot.Snapshot
		frames   [][]byte
		observed string
	}
	runs := make([]written, len(observerSetups))
	for i, s := range observerSetups {
		opts, observed := s.attach()
		var log frameLog
		res, err := Run(ctx, spec, append(opts, WithCheckpoint(&log, every))...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := resultJSON(t, res); got != want {
			t.Fatalf("%s: result differs from the unobserved run", s.name)
		}
		snaps, frames := log.cadence(t, every)
		runs[i] = written{snaps, frames, observed()}
	}
	if n := len(runs[0].frames); n < 3 {
		t.Fatalf("%d cadence frames, want at least 3", n)
	}

	t.Run("frames", func(t *testing.T) {
		ref := runs[0]
		for i, r := range runs[1:] {
			name := observerSetups[i+1].name
			if len(r.snaps) != len(ref.snaps) {
				t.Fatalf("%s: %d cadence frames, want %d", name, len(r.snaps), len(ref.snaps))
			}
			for j, snap := range r.snaps {
				want := ref.snaps[j]
				if snap.Fired != want.Fired {
					t.Fatalf("%s: cadence frame %d at event %d, want %d", name, j, snap.Fired, want.Fired)
				}
				if diff := snap.State.Diff(want.State); len(diff) > 0 {
					t.Errorf("%s: frame at event %d seals another state:\n%s", name, snap.Fired, strings.Join(diff, "\n"))
				}
				if !bytes.Equal(r.frames[j], ref.frames[j]) {
					t.Errorf("%s: frame at event %d differs from the unobserved run's", name, snap.Fired)
				}
			}
		}
	})

	t.Run("resume", func(t *testing.T) {
		for w, writer := range observerSetups {
			if len(runs[w].frames) != len(runs[0].frames) {
				t.Errorf("%s: %d cadence frames to resume from, want %d", writer.name, len(runs[w].frames), len(runs[0].frames))
				continue
			}
			mid := len(runs[w].frames) / 2
			frame, at := runs[w].frames[mid], runs[w].snaps[mid].Fired
			for r, resumer := range observerSetups {
				opts, observed := resumer.attach()
				var log frameLog
				res, err := Resume(ctx, bytes.NewReader(frame), append(opts, WithCheckpoint(&log, 0))...)
				if err != nil {
					t.Errorf("%s frame, %s resume: %v", writer.name, resumer.name, err)
					continue
				}
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s frame, %s resume: result differs from the uninterrupted run", writer.name, resumer.name)
				}
				if got := observed(); got != runs[r].observed {
					t.Errorf("%s frame, %s resume: the observer saw another run (%d bytes, want %d)",
						writer.name, resumer.name, len(got), len(runs[r].observed))
				}
				_, cont := log.cadence(t, every)
				if wantFrames := runs[0].frames[mid+1:]; len(cont) != len(wantFrames) {
					t.Errorf("%s frame, %s resume: %d cadence frames after event %d, want %d",
						writer.name, resumer.name, len(cont), at, len(wantFrames))
				} else {
					for j := range cont {
						if !bytes.Equal(cont[j], wantFrames[j]) {
							t.Errorf("%s frame, %s resume: continuation frame %d differs", writer.name, resumer.name, j)
						}
					}
				}
			}
		}
	})

	t.Run("cadence", func(t *testing.T) {
		// Cadence 10⁴ ran above. Cadences 1 and 7 capture a frame at
		// (nearly) every event, so they run a smaller migrating spec.
		small := quickSpec(PolicyHDF)
		small.Scale = 2000
		plain, err := Run(ctx, small)
		if err != nil {
			t.Fatal(err)
		}
		if plain.MovedObjects == 0 {
			t.Fatal("the small spec migrates nothing")
		}
		want := resultJSON(t, plain)
		for _, k := range []uint64{1, 7} {
			for _, s := range observerSetups {
				opts, _ := s.attach()
				var frames countingWriter
				res, err := Run(ctx, small, append(opts, WithCheckpoint(&frames, k))...)
				if err != nil {
					t.Fatalf("k=%d, %s: %v", k, s.name, err)
				}
				if got := resultJSON(t, res); got != want {
					t.Errorf("k=%d, %s: result differs from the uncheckpointed run", k, s.name)
				}
				if minFrames := res.Completed / int(k) / 2; frames.n < minFrames {
					t.Errorf("k=%d, %s: %d frames, want at least %d", k, s.name, frames.n, minFrames)
				}
			}
		}
	})
}

// countingWriter counts checkpoint frames without keeping them.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n++
	return len(p), nil
}

// TestCheckpointTriggerKeepsCadence pins CheckpointTrigger's promise
// that demand polling never shifts the cadence frames: with a trigger
// installed, every cadence frame lands on the same event as without
// one, whether or not the cadence is a multiple of the poll interval.
// Polling costs a hook call only at the poll and cadence positions, so
// a run of n events calls the hook at most n/4096 + n/cadence + 2 times,
// even for a cadence with no factor of two in common with 4096.
func TestCheckpointTriggerKeepsCadence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		every uint64
		scale int
	}{{10_000, 200}, {4_096, 200}, {6_000, 200}, {100_003, 30}} {
		spec := quickSpec(PolicyHDF)
		spec.Scale = tc.scale
		every := tc.every
		// run reports the events its frames landed on, how often the
		// checkpoint hook ran, and how many events the run fired.
		run := func(opts ...RunOption) (frames []uint64, calls, events uint64) {
			var log frameLog
			var o runOptions
			for _, fn := range append(opts, WithCheckpoint(&log, every)) {
				fn(&o)
			}
			env, err := setup(ctx, spec, &o)
			if err != nil {
				t.Fatal(err)
			}
			env.cl.SetCheckpoint(func(now sim.Time) error { calls++; return env.hook(now) })
			if _, err := env.cl.RunContext(ctx); err != nil {
				t.Fatal(err)
			}
			for _, f := range log {
				snap, err := snapshot.Decode(f)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, snap.Fired)
			}
			return frames, calls, env.cl.Engine().Fired()
		}
		plain, plainCalls, n := run()
		triggered, calls, _ := run(WithCheckpointTrigger(&CheckpointTrigger{}))
		if len(plain) < 2 {
			t.Fatalf("every %d: %d frames, want at least 2", every, len(plain))
		}
		if fmt.Sprint(triggered) != fmt.Sprint(plain) {
			t.Errorf("every %d: cadence frames at events %v with a trigger, %v without", every, triggered, plain)
		}
		if max := n / every; plainCalls != max {
			t.Errorf("every %d: %d hook calls without a trigger over %d events, want %d", every, plainCalls, n, max)
		}
		if max := n/demandPollInterval + n/every + 2; calls > max {
			t.Errorf("every %d: %d hook calls with a trigger over %d events, want at most %d", every, calls, n, max)
		}
	}
}
