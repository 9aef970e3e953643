package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"edm"
)

// cellTestOpts is a sweep small enough (~15ms per cell) for end-to-end
// comparisons: one trace, one cluster size, all four policies.
func cellTestOpts() Options {
	return Options{Scale: 400, Seed: 3, OSDCounts: []int{8}, Traces: []string{"home02"}}
}

func TestMatrixSpecsMatchMatrixOrder(t *testing.T) {
	opts := Options{Scale: 50, Seed: 7} // defaults: 7 traces × {16,20} × 4 policies
	specs := MatrixSpecs(opts)
	if want := 7 * 2 * 4; len(specs) != want {
		t.Fatalf("len(MatrixSpecs) = %d, want %d", len(specs), want)
	}
	// Matrix builds its cells from the same decomposition; verify the
	// coordinates line up slot for slot without running anything.
	opts = opts.withDefaults()
	i := 0
	for _, tr := range opts.Traces {
		for _, n := range opts.OSDCounts {
			for _, p := range AllPolicies {
				s := specs[i]
				if s.Trace != tr || s.OSDs != n || s.Policy != p {
					t.Fatalf("specs[%d] = %+v, want %s/%d/%s", i, s, tr, n, p)
				}
				if s.Scale != opts.Scale || s.Seed != opts.Seed || s.Lambda != opts.Lambda {
					t.Fatalf("specs[%d] lost options: %+v", i, s)
				}
				i++
			}
		}
	}
	keys := map[string]bool{}
	for _, s := range specs {
		if keys[s.Key()] {
			t.Fatalf("duplicate key %q", s.Key())
		}
		keys[s.Key()] = true
	}
}

func TestCellSpecJSONRoundTrip(t *testing.T) {
	for _, s := range MatrixSpecs(Options{Scale: 50, Seed: 9, Lambda: 0.2, Check: true}) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var got CellSpec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != s {
			t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v\njson: %s", s, got, b)
		}
		if got.Key() != s.Key() {
			t.Fatalf("round trip changed the key: %q vs %q", s.Key(), got.Key())
		}
	}
}

// TestCellSpecWireCasing pins the spec's JSON keys to the v1 wire
// casing of server.RunRequest (DESIGN §5): the trace field travels as
// "workload", matching the key edmd accepts, so a spec body and a run
// request body never disagree on a field's name.
func TestCellSpecWireCasing(t *testing.T) {
	b, err := json.Marshal(CellSpec{Trace: "home02", OSDs: 16, Policy: AllPolicies[0],
		Scale: 20, Seed: 3, Lambda: 0.1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"workload", "osds", "policy", "scale", "seed", "lambda", "check"}
	if len(keys) != len(want) {
		t.Errorf("encoded spec has %d keys (%s), want %d", len(keys), b, len(want))
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("encoded spec missing key %q: %s", k, b)
		}
	}
	if _, ok := keys["trace"]; ok {
		t.Errorf("legacy key \"trace\" still encoded: %s", b)
	}
}

// TestRunCellMatchesMatrix pins the distributed sweep's core
// guarantee: executing a decomposed cell spec (as the local fallback
// or a worker would) reproduces the exact result the local Matrix
// harness computes for that slot.
func TestRunCellMatchesMatrix(t *testing.T) {
	opts := cellTestOpts()
	cells := Matrix(opts)
	specs := MatrixSpecs(opts)
	if len(cells) != len(specs) {
		t.Fatalf("matrix %d cells, %d specs", len(cells), len(specs))
	}
	for i, spec := range specs {
		if cells[i].Err != nil {
			t.Fatalf("matrix cell %s: %v", spec, cells[i].Err)
		}
		// Round-trip the spec through its wire encoding first: the
		// decoded spec must drive the identical run.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var decoded CellSpec
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		res, err := RunCell(context.Background(), decoded)
		if err != nil {
			t.Fatalf("RunCell(%s): %v", decoded, err)
		}
		if !reflect.DeepEqual(res, cells[i].Result) {
			t.Fatalf("RunCell(%s) diverged from the matrix cell", spec)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("RunCell(%s) result not byte-identical to matrix cell", spec)
		}
	}
}

// TestRunCellIsEdmRun pins the one run path: a cell run through the
// harness gives the bytes edm.Run gives for the cell's workload, scale,
// seed, size, policy and λ, with no experiment-side configuration.
func TestRunCellIsEdmRun(t *testing.T) {
	ctx := context.Background()
	for _, cs := range MatrixSpecs(cellTestOpts()) {
		got, err := RunCell(ctx, cs)
		if err != nil {
			t.Fatalf("RunCell(%s): %v", cs, err)
		}
		want, err := edm.Run(ctx, edm.Spec{Workload: cs.Trace, Scale: cs.Scale, Seed: cs.Seed,
			OSDs: cs.OSDs, Policy: cs.Policy, Lambda: cs.Lambda})
		if err != nil {
			t.Fatalf("edm.Run(%s): %v", cs, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("RunCell(%s) result differs from edm.Run of the cell's spec", cs)
		}
	}
}

func TestCellAssemblesMatrixSlice(t *testing.T) {
	opts := cellTestOpts()
	specs := MatrixSpecs(opts)
	cells := Matrix(opts)
	for i, s := range specs {
		rebuilt := s.Cell(cells[i].Result, cells[i].Err)
		if !reflect.DeepEqual(rebuilt, cells[i]) {
			t.Fatalf("spec %s rebuilt cell differs: %+v vs %+v", s, rebuilt, cells[i])
		}
	}
	// The rebuilt slice renders the same figure tables.
	rebuilt := make([]Cell, len(specs))
	for i, s := range specs {
		rebuilt[i] = s.Cell(cells[i].Result, cells[i].Err)
	}
	if got, want := Fig5(opts, rebuilt).Format(), Fig5(opts, cells).Format(); got != want {
		t.Fatalf("fig5 from rebuilt cells differs:\n%s\nvs\n%s", got, want)
	}
}

// countCells makes newCell and runSibling count prefixes and sibling
// runs until the test ends.
func countCells(t *testing.T) (prefixes, siblings *atomic.Int64) {
	prefixes, siblings = new(atomic.Int64), new(atomic.Int64)
	nc, rs := newCell, runSibling
	t.Cleanup(func() { newCell, runSibling = nc, rs })
	newCell = func(ctx context.Context, spec edm.Spec, n int, o ...edm.RunOption) (*edm.Cell, error) {
		prefixes.Add(1)
		return nc(ctx, spec, n, o...)
	}
	runSibling = func(c *edm.Cell, ctx context.Context, spec edm.Spec) (*edm.Result, error) {
		siblings.Add(1)
		return rs(c, ctx, spec)
	}
	return prefixes, siblings
}

// TestRunCellSharesOnePrefixPerCell runs a matrix's cells through
// RunCell one call at a time, in MatrixSpecs order and with two cells'
// policies interleaved: either way each cell replays one prefix, every
// policy continues from it, and the holder ends empty. Concurrent calls,
// as dispatch's local fallback makes, give the same bytes whatever they
// share.
func TestRunCellSharesOnePrefixPerCell(t *testing.T) {
	ctx := context.Background()
	opts := Options{Scale: 400, Seed: 4, OSDCounts: []int{8, 12}, Traces: []string{"home02", "deasna"}}
	specs := MatrixSpecs(opts)
	cells := len(specs) / len(AllPolicies)
	interleaved := make([]CellSpec, 0, len(specs))
	for i := 0; i < len(specs); i += 2 * len(AllPolicies) {
		for j := 0; j < len(AllPolicies); j++ {
			interleaved = append(interleaved, specs[i+j], specs[i+len(AllPolicies)+j])
		}
	}
	want := map[string]string{}
	for _, order := range [][]CellSpec{specs, interleaved} {
		held.Lock()
		held.cells = nil // what earlier tests left
		held.Unlock()
		prefixes, siblings := countCells(t)
		for _, cs := range order {
			res, err := RunCell(ctx, cs)
			if err != nil {
				t.Fatalf("RunCell(%s): %v", cs, err)
			}
			got := cellJSON(t, cs.Cell(res, nil))
			if w, ok := want[cs.Key()]; ok && w != got {
				t.Fatalf("RunCell(%s) differs between call orders", cs)
			}
			want[cs.Key()] = got
		}
		if n, m := prefixes.Load(), siblings.Load(); n != int64(cells) || m != int64(len(specs)) {
			t.Errorf("%d prefixes and %d sibling runs, want %d and %d", n, m, cells, len(specs))
		}
		if len(held.cells) != 0 {
			t.Errorf("the holder keeps %d cells after their last policies ran", len(held.cells))
		}
	}

	var wg sync.WaitGroup
	for _, cs := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunCell(ctx, cs)
			if err != nil {
				t.Errorf("RunCell(%s): %v", cs, err)
				return
			}
			if got, err := json.Marshal(cs.Cell(res, nil)); err != nil || string(got) != want[cs.Key()] {
				t.Errorf("concurrent RunCell(%s) differs from the one-call-at-a-time result (%v)", cs, err)
			}
		}()
	}
	wg.Wait()
	if len(held.cells) > 2 {
		t.Errorf("the holder keeps %d cells, want at most two", len(held.cells))
	}
}
