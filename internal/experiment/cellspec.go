package experiment

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"edm"
	"edm/internal/cluster"
)

// CellSpec is the serializable description of one matrix cell: the unit
// of work a distributed sweep ships to an edmd worker. Two specs with
// equal fields drive byte-identical simulations wherever they execute —
// every field that influences the run is here, and nothing else is.
//
// The JSON encoding is stable (Policy marshals by name via
// encoding.TextMarshaler), so decode(encode(spec)) is the identity and
// a spec can cross the wire without changing the run it describes.
// Field names follow the v1 wire casing of server.RunRequest
// (DESIGN §5): the trace is "workload" on the wire, and the remaining
// keys are the same lower-snake names the worker accepts.
type CellSpec struct {
	Trace  string  `json:"workload"`
	OSDs   int     `json:"osds"`
	Policy Policy  `json:"policy"`
	Scale  int     `json:"scale"`
	Seed   uint64  `json:"seed"`
	Lambda float64 `json:"lambda"`
	Check  bool    `json:"check,omitempty"`
}

// MatrixSpecs decomposes the experiment matrix into cell specs, in the
// exact order Matrix runs (and figures render) them: trace-major, then
// cluster size, then policy. Matrix itself iterates this slice, so the
// decomposition cannot drift from the local harness.
func MatrixSpecs(opts Options) []CellSpec {
	opts = opts.withDefaults()
	specs := make([]CellSpec, 0, len(opts.Traces)*len(opts.OSDCounts)*len(AllPolicies))
	for _, tr := range opts.Traces {
		for _, n := range opts.OSDCounts {
			for _, p := range AllPolicies {
				specs = append(specs, CellSpec{
					Trace:  tr,
					OSDs:   n,
					Policy: p,
					Scale:  opts.Scale,
					Seed:   opts.Seed,
					Lambda: opts.Lambda,
					Check:  opts.Check,
				})
			}
		}
	}
	return specs
}

// Key is the cell's deduplication identity: hedged or reassigned
// executions of the same spec share it, so a coordinator keeps exactly
// one result per key no matter how many times the cell ran.
func (s CellSpec) Key() string {
	var b strings.Builder
	b.WriteString(s.Trace)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(s.OSDs))
	b.WriteByte('/')
	b.WriteString(s.Policy.String())
	b.WriteString("/s")
	b.WriteString(strconv.Itoa(s.Scale))
	b.WriteString("/seed")
	b.WriteString(strconv.FormatUint(s.Seed, 10))
	b.WriteString("/l")
	b.WriteString(strconv.FormatFloat(s.Lambda, 'g', -1, 64))
	if s.Check {
		b.WriteString("/check")
	}
	return b.String()
}

// String labels the cell for logs and error messages.
func (s CellSpec) String() string {
	return fmt.Sprintf("%s/%d/%s", s.Trace, s.OSDs, s.Policy)
}

// options reconstructs the Options equivalent under which the spec's
// cell would run inside a local Matrix sweep.
func (s CellSpec) options(ctx context.Context) Options {
	return Options{
		Context: ctx,
		Scale:   s.Scale,
		Seed:    s.Seed,
		Lambda:  s.Lambda,
		Check:   s.Check,
	}.withDefaults()
}

// RunCell executes one cell locally. The result is byte-identical to
// the same cell's slot in Matrix under equivalent Options — RunCell is
// both the coordinator's graceful-degradation path and the reference
// a remote execution must reproduce. Consecutive calls for the
// policies of one (trace, cluster size) cell share its prefix (held); a
// call that arrives while the prefix runs replays its own, not waiting.
func RunCell(ctx context.Context, s CellSpec) (*cluster.Result, error) {
	opts := s.options(ctx)
	spec := paperSpec(s.Trace, s.OSDs, s.Policy, opts)
	label := runLabel("cell", spec)
	shared, runOpts, _, err := prepare(opts, label, spec)
	if err != nil {
		return nil, err
	}
	var cell *edm.Cell
	if key, ok := edm.CellKeyOf(shared, runOpts...); ok {
		h, first := joinCell(key)
		if first {
			h.cell.Store(startCell(ctx, shared, len(AllPolicies)))
		}
		cell = h.cell.Load()
	}
	return run(opts, label, shared, cell)
}

// held keeps RunCell's cells between calls: the two newest, each
// dropped once its last policy has started (taking the original).
var held struct {
	sync.Mutex
	cells []*heldCell // newest last
}

type heldCell struct {
	key  edm.CellKey
	cell atomic.Pointer[edm.Cell] // nil while the prefix runs
	left int                      // the cell's policies not yet started
}

// joinCell counts a policy of key's cell, first if it starts the cell.
func joinCell(key edm.CellKey) (c *heldCell, first bool) {
	held.Lock()
	defer held.Unlock()
	if i := slices.IndexFunc(held.cells, func(c *heldCell) bool { return c.key == key }); i >= 0 {
		c = held.cells[i]
	} else {
		c, first = &heldCell{key: key, left: len(AllPolicies)}, true
		held.cells = append(slices.Delete(held.cells, 0, max(len(held.cells)-1, 0)), c)
	}
	if c.left--; c.left == 0 {
		held.cells = slices.DeleteFunc(held.cells, func(o *heldCell) bool { return o == c })
	}
	return c, first
}

// Cell packages an execution outcome as the figure-table cell for this
// spec, letting a coordinator reassemble Matrix-shaped slices from
// remotely produced results.
func (s CellSpec) Cell(res *cluster.Result, err error) Cell {
	return Cell{Trace: s.Trace, OSDs: s.OSDs, Policy: s.Policy, Result: res, Err: err}
}
