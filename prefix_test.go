package edm

import (
	"context"
	"strings"
	"testing"

	"edm/internal/cluster"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

// sharedRun is Run with the memo attached, also reporting whether the
// run continued a fork of a template and whether it would publish one.
func sharedRun(t *testing.T, spec Spec, memo *PrefixMemo, opts ...RunOption) (res string, forked, publishes bool) {
	t.Helper()
	ctx := context.Background()
	var o runOptions
	for _, fn := range append(opts, WithPrefixMemo(memo)) {
		fn(&o)
	}
	env, err := setup(ctx, spec, &o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.run(ctx)
	if err == nil {
		err = env.finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, r), env.forked, env.memo != nil
}

// memoSpecs returns the four systems' specs over one explicit trace.
func memoSpecs(tr *trace.Trace, osds int) []Spec {
	var specs []Spec
	for _, p := range AllPolicies() {
		specs = append(specs, Spec{Trace: tr, OSDs: osds, Policy: p, Seed: 3})
	}
	return specs
}

// TestPrefixMemoMatchesUnsharedRuns runs every profile × {16, 20}
// OSDs × four policies with the memo, letting each policy in turn
// publish the template the other three fork: every run must give the
// bytes of the same run without a memo.
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
				memo := &PrefixMemo{}
				order := append([]int{first}, remove(first, len(specs))...)
				for k, i := range order {
					got, forked, _ := sharedRun(t, specs[i], memo)
					if forked != (k > 0) {
						t.Fatalf("%s/%d: %v run %d forked=%v", name, osds, specs[i].Policy, k, forked)
					}
					if got != want[i] {
						t.Errorf("%s/%d, %v publishing: %v result differs from the unshared run",
							name, osds, specs[first].Policy, specs[i].Policy)
					}
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

// TestPrefixMemoIneligibleRuns pins the runs that neither publish nor
// fork, even with a matching template in the memo: observed, checked or
// checkpointed runs, periodic and open-loop runs, and runs of a trace
// generated per run.
func TestPrefixMemoIneligibleRuns(t *testing.T) {
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, opts := base, func() []RunOption { return nil }
			if tc.spec != nil {
				spec = tc.spec(spec)
			}
			if tc.opts != nil {
				opts = tc.opts
			}
			empty := &PrefixMemo{}
			if _, forked, publishes := sharedRun(t, spec, empty, opts()...); forked || publishes {
				t.Fatalf("forked=%v publishes=%v, want neither", forked, publishes)
			}
			if empty.lookupAny() {
				t.Fatal("an ineligible run published a template")
			}

			// base publishes a template whose key every case but open
			// loop and the generated trace would match if eligible.
			full := &PrefixMemo{}
			sharedRun(t, base, full)
			if _, forked, publishes := sharedRun(t, spec, full, opts()...); forked || publishes {
				t.Fatalf("with a template in the memo: forked=%v publishes=%v, want neither", forked, publishes)
			}
		})
	}
}

// lookupAny reports whether the memo holds a template.
func (m *PrefixMemo) lookupAny() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tmpl.cl != nil
}

// TestPrefixMemoRejectsAlteredTemplate changes a published template
// behind the memo's back: the next fork must fail its verify, loudly,
// instead of continuing from the wrong state.
func TestPrefixMemoRejectsAlteredTemplate(t *testing.T) {
	tr, err := BuildTrace(Spec{Workload: "home02", Scale: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specs := memoSpecs(tr, 16)
	memo := &PrefixMemo{}
	sharedRun(t, specs[0], memo)
	if !memo.lookupAny() {
		t.Fatal("no template published")
	}
	if _, err := memo.tmpl.cl.OSD(0).SSD.Write(0); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), specs[2], WithPrefixMemo(memo))
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("fork of an altered template: err = %v, want a divergence error", err)
	}
}
