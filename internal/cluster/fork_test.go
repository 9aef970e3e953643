package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"edm/internal/migration"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// forkConfig warms the SSDs up, so forks copy GC-worn flash state (free
// lists, valid-count buckets, victim history), not just fresh devices.
func forkConfig(mode MigrationMode) Config {
	cfg := testConfig(16)
	cfg.WarmupDisabled = false
	cfg.Migration = mode
	return cfg
}

// forkPolicy is one of the four systems as a cluster mode and planner.
type forkPolicy struct {
	name    string
	mode    MigrationMode
	planner func() migration.Planner
}

var forkPolicies = []forkPolicy{
	{"baseline", MigrateNever, func() migration.Planner { return nil }},
	{"cmt", MigrateMidpoint, func() migration.Planner { return migration.NewCMT(migration.DefaultConfig()) }},
	{"hdf", MigrateMidpoint, func() migration.Planner { return migration.NewHDF(migration.DefaultConfig()) }},
	{"cdf", MigrateMidpoint, func() migration.Planner { return migration.NewCDF(migration.DefaultConfig()) }},
}

func buildFor(t *testing.T, p forkPolicy, tr *trace.Trace) *Cluster {
	t.Helper()
	cl, err := New(forkConfig(p.mode), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(p.planner())
	return cl
}

// resultBytes is a run's result as JSON, or its error's text.
func resultBytes(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(b)
}

func requireSameState(t *testing.T, got, want *Cluster) {
	t.Helper()
	if diffs := got.ExportState().Diff(want.ExportState()); len(diffs) > 0 {
		t.Fatalf("fork's state differs from the original's:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestForkContinuesLikeTheOriginal forks an HDF run at several pauses
// — built, started, inside the prefix, at the prefix boundary, and
// after the migration round — and requires the fork to export the
// original's state and both, continued, to give an unforked run's
// result bytes.
func TestForkContinuesLikeTheOriginal(t *testing.T) {
	ctx := context.Background()
	tr := tinyTrace(t, 11)
	hdf := forkPolicies[2]
	ref := buildFor(t, hdf, tr)
	want := resultBytes(ref.Run())
	total := ref.eng.Fired()
	if ref.migrations == 0 {
		t.Fatal("reference run never migrated: the fork points would not straddle a round")
	}

	pauses := []struct {
		name  string
		pause func(*Cluster) error
	}{
		{"built", nil},
		{"start", func(c *Cluster) error { return c.FastForward(ctx, 0) }},
		{"inside the prefix", func(c *Cluster) error { return c.FastForward(ctx, total/4) }},
		{"boundary", func(c *Cluster) error { return c.RunPrefix(ctx) }},
		{"after the round", func(c *Cluster) error { return c.FastForward(ctx, total-10) }},
	}
	for _, p := range pauses {
		t.Run(p.name, func(t *testing.T) {
			orig := buildFor(t, hdf, tr)
			cont := func(c *Cluster) (*Result, error) { return c.Run() }
			if p.pause != nil {
				if err := p.pause(orig); err != nil {
					t.Fatal(err)
				}
				cont = func(c *Cluster) (*Result, error) { return c.ContinueContext(ctx) }
			}
			fork, err := orig.Fork(&Scratch{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, fork, orig)
			fork.SetPlanner(hdf.planner())
			if got := resultBytes(cont(orig)); got != want {
				t.Errorf("original after the fork: result differs from the unforked run")
			}
			if got := resultBytes(cont(fork)); got != want {
				t.Errorf("fork: result differs from the unforked run")
			}
		})
	}
}

// TestForkedPrefixServesEveryPolicy pauses a baseline run at its
// prefix boundary and continues four forks of it concurrently, each
// retargeted to one of the four systems: each must give that system's
// unforked result bytes, and the paused original must export the same
// state after the forks ran as before. So the original, retargeted, may
// continue unverified as a cell's last sibling, and it must then give
// that system's bytes too.
func TestForkedPrefixServesEveryPolicy(t *testing.T) {
	ctx := context.Background()
	tr := tinyTrace(t, 12)
	want := make([]string, len(forkPolicies))
	for i, p := range forkPolicies {
		want[i] = resultBytes(buildFor(t, p, tr).Run())
	}
	orig := buildFor(t, forkPolicies[0], tr)
	if err := orig.RunPrefix(ctx); err != nil {
		t.Fatal(err)
	}
	if half := orig.totalOps / 2; orig.completedOps != half-1 {
		t.Fatalf("prefix paused with %d operations complete, want %d", orig.completedOps, half-1)
	}
	before := orig.ExportState()

	got := make([]string, len(forkPolicies))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, p := range forkPolicies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := orig.Fork(&Scratch{})
				if err == nil {
					err = f.Retarget(p.mode, p.planner())
				}
				if err != nil {
					got[i] = err.Error()
					return
				}
				got[i] = resultBytes(f.ContinueContext(ctx))
			}()
		}
		wg.Wait()
		for i, p := range forkPolicies {
			if got[i] != want[i] {
				t.Errorf("round %d, %s: forked result differs from the unforked run", round, p.name)
			}
		}
	}
	if diffs := orig.ExportState().Diff(before); len(diffs) > 0 {
		t.Fatalf("forks changed the original:\n  %s", strings.Join(diffs, "\n  "))
	}
	last := forkPolicies[3]
	if err := orig.Retarget(last.mode, last.planner()); err != nil {
		t.Fatal(err)
	}
	if got := resultBytes(orig.ContinueContext(ctx)); got != want[3] {
		t.Errorf("the original continued as %s: result differs from the unforked run", last.name)
	}
}

// TestForkRefusals pins what Fork and RunPrefix refuse, each with an
// error wrapping ErrUnforkable.
func TestForkRefusals(t *testing.T) {
	ctx := context.Background()
	tr := tinyTrace(t, 13)
	hdf := forkPolicies[2]
	cases := []struct {
		name  string
		setup func(*Cluster) error
		op    func(*Cluster) error
	}{
		{"recorder", func(c *Cluster) error { c.SetRecorder(telemetry.Nop{}); return nil }, nil},
		{"metrics", func(c *Cluster) error { c.SetMetrics(telemetry.NewRegistry(), sim.Second); return nil }, nil},
		{"checkpoint hook", func(c *Cluster) error {
			c.SetCheckpoint(func(sim.Time) error { return nil })
			return nil
		}, nil},
		{"closure event", func(c *Cluster) error { c.FailOSD(3, sim.Second); return nil }, nil},
		{"move in flight", func(c *Cluster) error {
			if err := c.RunPrefix(ctx); err != nil {
				return err
			}
			// The next event completes the midpoint operation, whose
			// shuffle locks the moved objects and starts the mover.
			if err := c.eng.RunContextFired(ctx, c.eng.Fired()+1); err != nil {
				return err
			}
			if !c.migrating || len(c.locked) == 0 {
				t.Fatal("no migration round in flight after the midpoint event")
			}
			return nil
		}, nil},
		{"open loop prefix", func(c *Cluster) error { c.cfg.OpenLoopRate = 100; return nil },
			func(c *Cluster) error { return c.RunPrefix(ctx) }},
		{"periodic prefix", func(c *Cluster) error { c.cfg.Migration = MigratePeriodic; return nil },
			func(c *Cluster) error { return c.RunPrefix(ctx) }},
		{"failure before the prefix", func(c *Cluster) error { c.FailOSD(3, sim.Second); return nil },
			func(c *Cluster) error { return c.RunPrefix(ctx) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := buildFor(t, hdf, tr)
			if err := tc.setup(cl); err != nil {
				t.Fatal(err)
			}
			op := tc.op
			if op == nil {
				op = func(c *Cluster) error { _, err := c.Fork(&Scratch{}); return err }
			}
			if err := op(cl); !errors.Is(err, ErrUnforkable) {
				t.Fatalf("got %v, want an error wrapping ErrUnforkable", err)
			}
		})
	}
}

// TestRetargetRefusals pins that a fork cannot change policy once the
// migration controller could have acted.
func TestRetargetRefusals(t *testing.T) {
	ctx := context.Background()
	tr := tinyTrace(t, 14)
	cl := buildFor(t, forkPolicies[2], tr)
	if err := cl.Retarget(MigratePeriodic, nil); err == nil {
		t.Error("retarget to periodic accepted")
	}
	if err := cl.FastForward(ctx, cl.eng.Fired()+uint64(len(tr.Records))); err != nil {
		t.Fatal(err)
	}
	if err := cl.Retarget(MigrateNever, nil); err == nil {
		t.Error("retarget past the midpoint accepted")
	}
}
