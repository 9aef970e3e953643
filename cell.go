package edm

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"edm/internal/cluster"
	"edm/internal/snapshot"
	"edm/internal/trace"
)

// A Cell shares the policy-independent first half of sibling runs: one
// trace and cluster configuration under different policies. The
// paper's §V method forces the migrating policies to shuffle at the
// trace midpoint, so until then the baseline, CMT, HDF and CDF runs of
// one (trace, cluster) cell are one simulation. NewCell replays that
// prefix once and pauses it for n siblings. Each Run continues one
// under its own planner and migration mode: the first n−1 a fork of
// the paused original that must pass snapshot.Verify against one seal
// of it, the n-th, once every fork is taken, the original itself. Every
// Result is byte-identical to an unshared Run's.
//
// A run is eligible when it replays an explicit Spec.Trace (a generated
// trace is a new value per run, so it matches nothing) of at least two
// operations in closed loop, migrates at the midpoint or never, and
// carries no recorder, metrics, WithCheck, checkpoint writer or
// trigger.
type Cell struct {
	key  CellKey
	seal *snapshot.Snapshot

	mu   sync.Mutex
	orig *cluster.Cluster // the paused original, nil once taken
	left int              // siblings not yet started
}

// CellKey names a cell: the trace pointer plus the whole cluster
// configuration but its migration mode (JSON-encoded, with the scratch
// and hook cadence cleared), since policy, λ, MigrationConfig and mode
// only act from the midpoint on. Siblings have equal keys.
type CellKey struct {
	tr  *trace.Trace
	cfg string
}

// CellKeyOf reports the cell a run of spec under opts belongs to, and
// false for a run that is not eligible to share its prefix (Cell).
func CellKeyOf(spec Spec, opts ...RunOption) (CellKey, bool) {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	cfg, err := spec.clusterConfig()
	switch {
	case err != nil, o.ckW != nil, o.trigger != nil, o.rec != nil, o.metrics != nil, o.check:
		return CellKey{}, false
	case spec.Trace == nil || len(spec.Trace.Records) < 2:
		return CellKey{}, false
	case cfg.OpenLoopRate > 0 || cfg.Migration == cluster.MigratePeriodic:
		return CellKey{}, false
	}
	cfg.Migration, cfg.Scratch, cfg.CheckpointEvery = cluster.MigrateNever, nil, 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return CellKey{}, false
	}
	return CellKey{tr: spec.Trace, cfg: string(b)}, true
}

// NewCell builds spec's cluster, replays its prefix and pauses it there
// for n sibling runs, the first of which may be spec itself. A run that
// is not eligible is refused, before anything runs, with an error
// wrapping cluster.ErrUnforkable: give it to Run instead. A Scratch
// donated in spec.Cluster goes to the paused original.
func NewCell(ctx context.Context, spec Spec, n int, opts ...RunOption) (*Cell, error) {
	key, ok := CellKeyOf(spec, opts...)
	if !ok {
		return nil, fmt.Errorf("edm: the run cannot share its prefix: %w", cluster.ErrUnforkable)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cl, err := NewCluster(spec)
	if err != nil {
		return nil, err
	}
	if err := cl.RunPrefix(ctx); err != nil {
		return nil, fmt.Errorf("edm: replaying the cell's prefix: %w", err)
	}
	return &Cell{key: key, seal: snapshot.Capture(cl, nil, nil), orig: cl, left: n}, nil
}

// Run continues one sibling of the cell under spec's policy, λ and
// migration tunables, and returns its Result. spec must have the cell's
// key. A Scratch donated in spec.Cluster comes back refilled, as with
// Run. Calls may overlap; beyond the cell's n they are refused with an
// error wrapping cluster.ErrUnforkable.
func (c *Cell) Run(ctx context.Context, spec Spec) (*Result, error) {
	if key, ok := CellKeyOf(spec); !ok || key != c.key {
		return nil, fmt.Errorf("edm: the run is not a sibling of the cell: %w", cluster.ErrUnforkable)
	}
	env := &runEnv{scratch: spec.Cluster.Scratch}
	forked, err := c.take(env)
	if err == nil && forked {
		err = snapshot.Verify(env.cl, c.seal)
	}
	if err == nil {
		err = env.cl.Retarget(spec.migrationMode(), spec.planner())
	}
	if err != nil {
		return nil, fmt.Errorf("edm: continuing a cell's sibling: %w", err)
	}
	res, err := env.cl.ContinueContext(ctx)
	if err != nil {
		return nil, err
	}
	return res, env.finish()
}

// take hands the next sibling a fork of the paused original in its
// scratch, or the last sibling the original, once no fork is copying.
func (c *Cell) take(env *runEnv) (forked bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.left {
	case 0:
		return false, fmt.Errorf("every sibling has run: %w", cluster.ErrUnforkable)
	case 1:
		env.cl, c.orig = c.orig, nil
	default:
		if env.cl, err = c.orig.Fork(env.scratch); err != nil {
			return false, err
		}
		forked = true
	}
	c.left--
	return forked, nil
}
