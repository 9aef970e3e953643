package experiment

import (
	"context"
	"encoding/json"
	"testing"

	"edm"
)

// TestMatrixSharingIsScheduleIndependent runs the full matrix (seven
// traces × {16, 20} OSDs × four policies) over one, two and four
// workers. At each, every one of the 14 cells must replay its prefix
// once and continue its four policies from it, so 14 prefixes and 42
// forks (each cell's last sibling continues the paused original), and
// every cell must be byte-identical to edm.Run of its spec unshared.
func TestMatrixSharingIsScheduleIndependent(t *testing.T) {
	opts := Options{Scale: 400, Seed: 7, Lambda: 0.1}
	prefixes, siblings := countCells(t)
	specs := MatrixSpecs(opts)
	want := make([]string, len(specs))
	for i, s := range specs {
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
		want[i] = cellJSON(t, Cell{Trace: s.Trace, OSDs: s.OSDs, Policy: s.Policy, Result: res})
	}
	for _, p := range []int{1, 2, 4} {
		prefixes.Store(0)
		siblings.Store(0)
		opts.Parallelism = p
		cells := Matrix(opts)
		if len(cells) != 56 {
			t.Fatalf("parallelism %d: %d cells, want 56", p, len(cells))
		}
		if n, m := prefixes.Load(), siblings.Load(); n != 14 || m-n != 42 {
			t.Errorf("parallelism %d: %d prefixes and %d forks, want 14 and 42", p, n, m-n)
		}
		for i, s := range specs {
			if got := cellJSON(t, cells[i]); got != want[i] {
				t.Errorf("parallelism %d: %v: matrix cell differs from the unshared run", p, s)
			}
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
