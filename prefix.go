package edm

import (
	"context"
	"encoding/json"
	"sync"

	"edm/internal/cluster"
	"edm/internal/snapshot"
	"edm/internal/trace"
)

// PrefixMemo lets sibling runs — one trace and cluster configuration
// under different policies — share their policy-independent first
// half. The paper's §V method forces the migrating policies to shuffle
// at the trace midpoint, so until then the baseline, CMT, HDF and CDF
// runs of one (trace, cluster) cell are one simulation. A run handed a
// memo with WithPrefixMemo that is eligible either continues a fork of
// a matching template from the midpoint, under its own planner and
// migration mode, or runs to the midpoint, publishes a copy of its
// cluster there as a template, and continues. Either way its Result is
// byte-identical to an unshared run's.
//
// A run is eligible when it replays an explicit Spec.Trace (a generated
// trace is a new value per run, so it matches nothing) of at least two
// operations in closed loop, migrates at the midpoint or never, and
// carries no recorder, metrics, WithCheck, checkpoint writer or
// trigger. Every other run ignores the memo. The key is the trace
// pointer plus the whole cluster configuration but its migration mode:
// policy, λ, MigrationConfig and mode only act from the midpoint on.
//
// Templates are immutable: forks only read them, and each is sealed
// with a state capture once, at publish, which every fork must
// re-export exactly (snapshot.Verify) before it continues, failing the
// run otherwise. A run that misses never waits for another: it runs
// its own prefix and publishes it unless a sibling got there first.
// The memo holds one template, the newest: a sweep that dispatches a
// cell's policies consecutively has, by the time the next cell
// publishes at its midpoint, started every run of the previous cell,
// and each template holds a whole cluster (5–7 MB at scale 20). The
// zero PrefixMemo is ready to use and safe for concurrent runs.
type PrefixMemo struct {
	mu   sync.Mutex
	tmpl prefixTemplate // cl is nil until the first publish
}

// prefixKey names a prefix: the trace and the cluster configuration
// (JSON-encoded, with the migration mode, scratch and hook cadence
// cleared).
type prefixKey struct {
	tr  *trace.Trace
	cfg string
}

// prefixTemplate is a published prefix: a cluster paused at its
// midpoint boundary that nothing runs, and its sealed state.
type prefixTemplate struct {
	key  prefixKey
	cl   *cluster.Cluster
	seal *snapshot.Snapshot
}

// WithPrefixMemo lets the run share its policy-independent prefix with
// sibling runs through m (see PrefixMemo); an ineligible run ignores
// it, and so does Resume, whose replay verifies the frame it resumes.
func WithPrefixMemo(m *PrefixMemo) RunOption {
	return func(o *runOptions) { o.memo = m }
}

// prefixKey reports the memo key of an eligible run with cluster
// configuration cfg, and false for every other run.
func (o *runOptions) prefixKey(spec Spec, cfg cluster.Config) (prefixKey, bool) {
	switch {
	case o.memo == nil, o.ckW != nil, o.trigger != nil, o.rec != nil, o.metrics != nil, o.check:
		return prefixKey{}, false
	case spec.Trace == nil || len(spec.Trace.Records) < 2:
		return prefixKey{}, false
	case cfg.OpenLoopRate > 0 || cfg.Migration == cluster.MigratePeriodic:
		return prefixKey{}, false
	}
	cfg.Migration, cfg.Scratch, cfg.CheckpointEvery = cluster.MigrateNever, nil, 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return prefixKey{}, false
	}
	return prefixKey{tr: spec.Trace, cfg: string(b)}, true
}

// lookup returns the template published under k, if any.
func (m *PrefixMemo) lookup(k prefixKey) *prefixTemplate {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tmpl.cl == nil || m.tmpl.key != k {
		return nil
	}
	t := m.tmpl
	return &t
}

// publish replaces the template with t, unless the memo already holds
// one under t's key.
func (m *PrefixMemo) publish(t prefixTemplate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tmpl.cl == nil || m.tmpl.key != t.key {
		m.tmpl = t
	}
}

// fork continues a template: it copies the paused cluster into the
// run's scratch, checks the copy against the template's seal, and
// installs the run's own migration mode and planner.
func (t *prefixTemplate) fork(spec Spec, scratch *cluster.Scratch) (*cluster.Cluster, error) {
	cl, err := t.cl.Fork(scratch)
	if err != nil {
		return nil, err
	}
	if err := snapshot.Verify(cl, t.seal); err != nil {
		return nil, err
	}
	if err := cl.Retarget(spec.migrationMode(), spec.planner()); err != nil {
		return nil, err
	}
	return cl, nil
}

// runPrefix runs a freshly built cluster to its midpoint boundary,
// publishes a sealed copy of it there under k unless a sibling already
// has, and leaves the cluster paused for ContinueContext.
func (m *PrefixMemo) runPrefix(ctx context.Context, cl *cluster.Cluster, k prefixKey) error {
	if err := cl.RunPrefix(ctx); err != nil {
		return err
	}
	if m.lookup(k) != nil {
		return nil
	}
	tmpl, err := cl.Fork(nil)
	if err != nil {
		return err
	}
	m.publish(prefixTemplate{key: k, cl: tmpl, seal: snapshot.Capture(tmpl, nil, nil)})
	return nil
}
