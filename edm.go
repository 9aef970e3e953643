// Package edm is a faithful reimplementation, as a simulation library, of
// EDM — the endurance-aware data migration scheme for load balancing in
// SSD storage clusters (Ou, Shu, Lu, Yi, Wang; IPDPS 2014).
//
// The library bundles everything the paper's evaluation needs:
//
//   - a page-level-FTL NAND SSD simulator with greedy garbage
//     collection and the paper's latency constants,
//   - a deterministic discrete-event model of a pNFS-style storage
//     cluster (clients, MDS, serially-served OSDs, object-level RAID-5,
//     hash placement with intra-group migration),
//   - the EDM wear model (Eq. 1–4), object temperatures (Def. 1),
//     Algorithm 1, and the HDF/CDF migration policies,
//   - the CMT baseline (a Sorrento-style conventional migration
//     technique), and
//   - seeded synthetic generators for the seven Harvard NFS workloads
//     of Table I.
//
// Quick start:
//
//	spec := edm.Spec{Workload: "home02", OSDs: 16, Policy: edm.PolicyHDF, Scale: 50, Seed: 1}
//	res, err := edm.Run(context.Background(), spec)
//	// res.ThroughputOps, res.AggregateErases, res.MovedObjects, ...
//
// Runs are cancellable — the context threads through the whole stack
// down to the discrete-event engine, which polls it every few thousand
// events — and options attach process-local concerns: WithCheckpoint
// writes digest-sealed snapshots a later Resume continues from with
// byte-identical output, WithTelemetry and WithMetrics attach an event
// recorder and a metric registry, WithCheck runs the full
// invariant-checking harness. NewCell lets the runs of a sweep that
// differ only in policy share their first half.
package edm

import (
	"fmt"

	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/policy"
	"edm/internal/sim"
	"edm/internal/trace"
)

// Policy selects the migration scheme for a run. It is an alias of the
// shared internal policy type, so the experiment harness and this
// package label figures from one source of truth.
type Policy = policy.Policy

// The four systems compared throughout the paper's evaluation (§V).
const (
	// PolicyBaseline runs no migration.
	PolicyBaseline = policy.Baseline
	// PolicyCMT is the conventional (Sorrento-based) migration
	// technique.
	PolicyCMT = policy.CMT
	// PolicyHDF is EDM's Hot-Data First policy.
	PolicyHDF = policy.HDF
	// PolicyCDF is EDM's Cold-Data First policy.
	PolicyCDF = policy.CDF
)

// AllPolicies lists the four systems in the paper's presentation order.
func AllPolicies() []Policy { return policy.All() }

// ParsePolicy maps a user-facing name (baseline, cmt, hdf, cdf, or a
// figure label like EDM-HDF) to a Policy, case-insensitively.
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// ErrUnknownWorkload tags a Spec.Workload name that matches no built-in
// profile; test with errors.Is.
var ErrUnknownWorkload = trace.ErrUnknownProfile

// Spec describes one replay experiment.
type Spec struct {
	// Workload names a built-in Harvard profile (home02, home03,
	// home04, deasna, deasna2, lair62, lair62b) or "random". Ignored
	// when Trace is set.
	Workload string
	// Trace supplies an explicit workload instead of a named profile.
	Trace *trace.Trace

	// Scale divides the profile's file and operation counts (>= 1);
	// 1 replays the full Table I workload. Ignored when Trace is set.
	Scale int

	// OSDs is the cluster size (paper: 16 and 20).
	OSDs int
	// Groups is m (paper: 4). Zero takes the default.
	Groups int
	// ObjectsPerFile is k (paper: 4). Zero takes the default.
	ObjectsPerFile int

	// Policy selects the migration scheme.
	Policy Policy
	// MigrationMode overrides the controller mode. Nil — the default —
	// picks the paper's methodology: MigrateNever for PolicyBaseline
	// and MigrateMidpoint otherwise. A non-nil pointer always wins,
	// including an explicit &MigrateNever.
	MigrationMode *cluster.MigrationMode

	// Lambda is the trigger threshold λ; zero takes the default (0.1).
	Lambda float64

	// CheckpointEvery is the checkpoint cadence in fired simulation
	// events, used when the run is given a checkpoint writer
	// (WithCheckpoint) without an explicit cadence. Zero defers to
	// Cluster.CheckpointEvery, then DefaultCheckpointEvery. Ignored
	// entirely when no checkpoint writer is attached.
	CheckpointEvery uint64

	// Seed drives workload generation and warm-up churn.
	Seed uint64

	// Cluster lets callers override low-level knobs. Its non-zero OSDs,
	// Groups, ObjectsPerFile and Seed win over the fields of the same
	// names above; Spec.CheckpointEvery wins over its CheckpointEvery.
	// Its Migration must stay zero: the controller mode is set by
	// MigrationMode. A Scratch donated here comes back refilled with
	// the run's grown buffers once Run succeeds.
	Cluster cluster.Config

	// MigrationConfig overrides the planners' shared tunables.
	MigrationConfig *migration.Config
}

// Result re-exports the cluster run result.
type Result = cluster.Result

// ClusterConfig re-exports the low-level cluster configuration for
// callers that tune knobs beyond the Spec fields (placement layout,
// bucket widths, open-loop rate). It holds only what a checkpoint frame
// may carry: observers attach through WithTelemetry and WithMetrics.
type ClusterConfig = cluster.Config

// BuildTrace materialises the spec's workload.
func BuildTrace(spec Spec) (*trace.Trace, error) {
	if spec.Trace != nil {
		return spec.Trace, nil
	}
	p, err := trace.Workload(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("edm: %w", err)
	}
	return trace.Generate(p.Scaled(max(spec.Scale, 1)), spec.Seed)
}

// NewCluster builds the simulated cluster for a spec, with the policy's
// planner installed (exposed for callers that need mid-run access; most
// callers use Run).
func NewCluster(spec Spec) (*cluster.Cluster, error) {
	cfg, err := spec.clusterConfig()
	if err != nil {
		return nil, err
	}
	tr, err := BuildTrace(spec)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	if planner := spec.planner(); planner != nil {
		cl.SetPlanner(planner)
	}
	return cl, nil
}

// clusterConfig merges the spec's layout fields and controller mode
// into its Cluster configuration.
func (spec Spec) clusterConfig() (cluster.Config, error) {
	if spec.Cluster.Migration != cluster.MigrateNever {
		return cluster.Config{}, fmt.Errorf("edm: Spec.Cluster.Migration is %v; set the controller mode with Spec.MigrationMode: %w",
			spec.Cluster.Migration, cluster.ErrInvalidConfig)
	}
	cfg := spec.Cluster
	if cfg.OSDs == 0 {
		cfg.OSDs = spec.OSDs
	}
	if cfg.Groups == 0 {
		cfg.Groups = spec.Groups
	}
	if cfg.ObjectsPerFile == 0 {
		cfg.ObjectsPerFile = spec.ObjectsPerFile
	}
	if cfg.Seed == 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Migration = spec.migrationMode()
	return cfg, nil
}

func (spec Spec) migrationMode() cluster.MigrationMode {
	if spec.MigrationMode != nil {
		return *spec.MigrationMode
	}
	if spec.Policy == PolicyBaseline {
		return cluster.MigrateNever
	}
	return cluster.MigrateMidpoint
}

func (spec Spec) planner() migration.Planner {
	mcfg := migration.DefaultConfig()
	if spec.MigrationConfig != nil {
		mcfg = *spec.MigrationConfig
	}
	if spec.Lambda != 0 {
		mcfg.Lambda = spec.Lambda
	}
	return spec.Policy.Planner(mcfg)
}

// Minute re-exports the virtual-time constant most examples need.
const Minute = sim.Minute
