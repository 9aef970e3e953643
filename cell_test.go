package edm

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"edm/internal/cluster"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// memoSpecs returns the four systems' specs over one explicit trace.
func memoSpecs(tr *trace.Trace, osds int) []Spec {
	var specs []Spec
	for _, p := range AllPolicies() {
		specs = append(specs, Spec{Trace: tr, OSDs: osds, Policy: p, Seed: 3})
	}
	return specs
}

// cellRun is Cell.Run, also reporting whether the run continued the
// paused original rather than a fork of it.
func cellRun(t *testing.T, c *Cell, spec Spec) (res string, original bool) {
	t.Helper()
	hadOrig := c.orig != nil
	r, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, r), hadOrig && c.orig == nil
}

// TestPrefixMemoMatchesUnsharedRuns runs every profile × {16, 20}
// OSDs × four policies as a cell, letting each policy in turn replay
// the prefix the cell pauses: the first three siblings must continue
// forks and the fourth the original, a fifth is refused, and every run
// must give the bytes of the same run without a cell. One cell per
// configuration also runs its siblings concurrently.
func TestPrefixMemoMatchesUnsharedRuns(t *testing.T) {
	ctx := context.Background()
	for _, name := range trace.ProfileNames() {
		tr, err := BuildTrace(Spec{Workload: name, Scale: 400, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, osds := range []int{16, 20} {
			specs := memoSpecs(tr, osds)
			want := make([]string, len(specs))
			for i, spec := range specs {
				res, err := Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = resultJSON(t, res)
			}
			for first := range specs {
				cell, err := NewCell(ctx, specs[first], len(specs))
				if err != nil {
					t.Fatal(err)
				}
				order := append([]int{first}, remove(first, len(specs))...)
				for k, i := range order {
					got, original := cellRun(t, cell, specs[i])
					if original != (k == len(order)-1) {
						t.Fatalf("%s/%d: %v sibling %d continued the original=%v", name, osds, specs[i].Policy, k, original)
					}
					if got != want[i] {
						t.Errorf("%s/%d, %v replaying the prefix: %v result differs from the unshared run",
							name, osds, specs[first].Policy, specs[i].Policy)
					}
				}
				if _, err := cell.Run(ctx, specs[first]); !errors.Is(err, cluster.ErrUnforkable) {
					t.Fatalf("a fifth sibling: err = %v, want ErrUnforkable", err)
				}
			}

			cell, err := NewCell(ctx, specs[0], len(specs))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					spec.Cluster.Scratch = &cluster.Scratch{}
					res, err := cell.Run(ctx, spec)
					if err != nil {
						got[i] = err.Error()
						return
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Error(err)
					}
					got[i] = string(b)
				}()
			}
			wg.Wait()
			for i := range specs {
				if got[i] != want[i] {
					t.Errorf("%s/%d, concurrent siblings: %v result differs from the unshared run", name, osds, specs[i].Policy)
				}
			}
		}
	}
}

// remove returns 0..n-1 without i.
func remove(i, n int) []int {
	var out []int
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// TestPrefixMemoIneligibleRuns pins the runs that cannot share a
// prefix: observed, checked or checkpointed runs, periodic and
// open-loop runs, and runs of a trace generated per run. Each has no
// cell key, NewCell refuses it with ErrUnforkable, and a cell of an
// eligible sibling refuses to continue it.
func TestPrefixMemoIneligibleRuns(t *testing.T) {
	ctx := context.Background()
	tr, err := BuildTrace(Spec{Workload: "home02", Scale: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := memoSpecs(tr, 16)[2] // HDF
	periodic, never := cluster.MigratePeriodic, cluster.MigrateNever
	cases := []struct {
		name string
		spec func(Spec) Spec
		opts func() []RunOption // fresh per run: a registry takes one run
	}{
		{"WithCheck", nil, func() []RunOption { return []RunOption{WithCheck()} }},
		{"WithTelemetry", nil, func() []RunOption { return []RunOption{WithTelemetry(telemetry.Nop{})} }},
		{"WithMetrics", nil, func() []RunOption { return []RunOption{WithMetrics(telemetry.NewRegistry(), 0)} }},
		{"WithCheckpoint", nil, func() []RunOption { return []RunOption{WithCheckpoint(&frameLog{}, 5000)} }},
		{"WithCheckpointTrigger", nil, func() []RunOption {
			return []RunOption{WithCheckpoint(&frameLog{}, 5000), WithCheckpointTrigger(&CheckpointTrigger{})}
		}},
		{"periodic", func(s Spec) Spec { s.MigrationMode = &periodic; return s }, nil},
		{"open loop", func(s Spec) Spec { s.MigrationMode = &never; s.Cluster.OpenLoopRate = 2000; return s }, nil},
		{"generated trace", func(s Spec) Spec { s.Trace, s.Workload, s.Scale = nil, "home02", 400; return s }, nil},
	}
	cell, err := NewCell(ctx, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, opts := base, func() []RunOption { return nil }
			if tc.spec != nil {
				spec = tc.spec(spec)
			}
			if tc.opts != nil {
				opts = tc.opts
			}
			if _, ok := CellKeyOf(spec, opts()...); ok {
				t.Fatal("the run has a cell key")
			}
			if _, err := NewCell(ctx, spec, 2, opts()...); !errors.Is(err, cluster.ErrUnforkable) {
				t.Fatalf("NewCell: err = %v, want ErrUnforkable", err)
			}
			if tc.spec != nil {
				if _, err := cell.Run(ctx, spec); !errors.Is(err, cluster.ErrUnforkable) {
					t.Fatalf("continuing it from an eligible sibling's cell: err = %v, want ErrUnforkable", err)
				}
			}
		})
	}
}

// TestPrefixMemoRejectsAlteredTemplate changes a cell's paused original
// behind its back: the next fork must fail its verify, loudly, instead
// of continuing from the wrong state.
func TestPrefixMemoRejectsAlteredTemplate(t *testing.T) {
	tr, err := BuildTrace(Spec{Workload: "home02", Scale: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specs := memoSpecs(tr, 16)
	ctx := context.Background()
	cell, err := NewCell(ctx, specs[0], len(specs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cell.orig.OSD(0).SSD.Write(0); err != nil {
		t.Fatal(err)
	}
	_, err = cell.Run(ctx, specs[2])
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("fork of an altered original: err = %v, want a divergence error", err)
	}
}
