package experiment

import (
	"context"
	"encoding/json"
	"testing"

	"edm"
)

// TestMatrixSharingIsScheduleIndependent runs the full matrix (seven
// traces × {16, 20} OSDs × four policies) serially and over four
// workers, so that different cells publish the prefix templates the
// others fork, in an order the scheduler picks. Both must give the same
// cells, each byte-identical to edm.Run of its spec without a memo.
func TestMatrixSharingIsScheduleIndependent(t *testing.T) {
	opts := Options{Scale: 400, Seed: 7, Lambda: 0.1}
	opts.Parallelism = 1
	serial := Matrix(opts)
	opts.Parallelism = 4
	parallel := Matrix(opts)
	if len(serial) != 56 || len(parallel) != 56 {
		t.Fatalf("%d and %d cells, want 56", len(serial), len(parallel))
	}
	for i, s := range MatrixSpecs(opts) {
		tr, err := buildTrace(s.Trace, opts)
		if err != nil {
			t.Fatal(err)
		}
		spec := paperSpec(s.Trace, s.OSDs, s.Policy, opts)
		spec.Trace, spec.Scale, spec.Seed = tr, opts.Scale, opts.Seed
		res, err := edm.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cellJSON(t, Cell{Trace: s.Trace, OSDs: s.OSDs, Policy: s.Policy, Result: res})
		if got := cellJSON(t, serial[i]); got != want {
			t.Errorf("%v: serial matrix cell differs from the unshared run", s)
		}
		if got := cellJSON(t, parallel[i]); got != want {
			t.Errorf("%v: parallel matrix cell differs from the unshared run", s)
		}
	}
}

func cellJSON(t *testing.T, c Cell) string {
	t.Helper()
	if c.Err != nil {
		t.Fatalf("%s/%d/%v: %v", c.Trace, c.OSDs, c.Policy, c.Err)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
