// Package cluster simulates the paper's storage testbed (§IV): a pNFS
// cluster of one metadata server and N object storage devices, each
// backed by a simulated SSD, replayed against by closed-loop clients.
//
// The simulation is a deterministic discrete-event model. Each OSD
// serves its request queue serially (the paper's osc-osd "handles them
// serially"); a file operation fans out to the objects of its RAID-5
// stripe and completes when the slowest sub-operation completes.
// Migration I/O flows through the same queues, so migration competes
// with foreground traffic for device bandwidth exactly as in the paper's
// Fig. 7 experiment.
package cluster

import (
	"errors"
	"fmt"

	"edm/internal/sim"
)

// ErrInvalidConfig tags every cluster-configuration validation failure
// (bad OSD count, invalid layout or RAID geometry) so callers can branch
// with errors.Is instead of matching message text.
var ErrInvalidConfig = errors.New("invalid cluster configuration")

// The testbed's fixed parameters. No experiment varies them.
const (
	// stripeUnit is the bytes of consecutive file data an object holds
	// before the RAID-5 stripe rotates to the next object (§V.A).
	stripeUnit = 64 << 10
	// targetMaxUtilization sizes every SSD identically so the most
	// utilized device lands at about this utilization (§IV: "about 70
	// percent").
	targetMaxUtilization = 0.7
	// gcLowBlocks and gcHighBlocks are every SSD's greedy-GC trigger
	// and refill watermarks in free blocks (flash.Config's defaults).
	gcLowBlocks, gcHighBlocks = 2, 4
	// mdsLatency is the fixed service time of a metadata operation
	// (open/close), and netOverhead the network and CPU overhead of
	// every sub-operation (§V.A).
	mdsLatency  = 150 * sim.Microsecond
	netOverhead = 100 * sim.Microsecond
	// loadEWMAAlpha smooths the per-OSD latency load factor CMT uses.
	loadEWMAAlpha = 0.3
)

// MinResponse is the shortest response any operation can have: a
// metadata operation's service time or one sub-operation's overhead,
// whichever is smaller.
const MinResponse = min(mdsLatency, netOverhead)

// MigrationMode selects when the migration controller runs.
type MigrationMode int

const (
	// MigrateNever runs no migration (the baseline system).
	MigrateNever MigrationMode = iota
	// MigrateMidpoint forces one migration when half of the trace's
	// operations have completed (§V.A: "we enforce the OSDs to shuffle
	// objects in the middle time point of trace replay").
	MigrateMidpoint
	// MigratePeriodic evaluates the planner's own trigger condition on
	// the wear monitor's cadence (§III.B.2: every minute).
	MigratePeriodic
)

// String implements fmt.Stringer.
func (m MigrationMode) String() string {
	switch m {
	case MigrateNever:
		return "never"
	case MigrateMidpoint:
		return "midpoint"
	case MigratePeriodic:
		return "periodic"
	}
	return fmt.Sprintf("MigrationMode(%d)", int(m))
}

// ParseMigrationMode maps a user-facing name (never, midpoint,
// periodic) to a mode. Unknown values yield an error naming every
// valid option.
func ParseMigrationMode(s string) (MigrationMode, error) {
	switch s {
	case "never":
		return MigrateNever, nil
	case "midpoint":
		return MigrateMidpoint, nil
	case "periodic":
		return MigratePeriodic, nil
	}
	return 0, fmt.Errorf("unknown migration mode %q (valid: never, midpoint, periodic)", s)
}

// MarshalText encodes the mode by name, so specs holding one serialize
// to readable JSON (the wire format cell specs ship to edmd workers).
func (m MigrationMode) MarshalText() ([]byte, error) {
	switch m {
	case MigrateNever, MigrateMidpoint, MigratePeriodic:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("cluster: cannot marshal %v", m)
}

// UnmarshalText decodes the names MarshalText produces.
func (m *MigrationMode) UnmarshalText(text []byte) error {
	v, err := ParseMigrationMode(string(text))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	*m = v
	return nil
}

// Config describes a simulated cluster.
type Config struct {
	// OSDs is the number of object storage devices (each with one SSD).
	OSDs int
	// Groups is m, the number of placement groups (§III.A; paper: 4).
	Groups int
	// ObjectsPerFile is k, the RAID-5 stripe width (paper: 4).
	ObjectsPerFile int
	// GroupRotate switches to group-rotating placement, which supports
	// the §III.D wear-staggering configuration below.
	GroupRotate bool
	// GroupSizes optionally assigns explicit (typically unequal) device
	// counts per group — §III.D's "differentiating the number of SSDs
	// assigned to each group". Requires GroupRotate.
	GroupSizes []int

	// WarmupDisabled skips the steady-state warm-up (§IV: dummy data
	// equal to each SSD's capacity is written before the replay, then
	// the counters are cleared). The zero value warms up, matching the
	// paper; tests may disable it for speed.
	WarmupDisabled bool

	// TemperatureInterval is the Def.-1 decay interval (default 1
	// minute, the wear monitor's cadence).
	TemperatureInterval sim.Time

	// ResponseBucket is the Fig.-7 time-series bucket width (default 3
	// minutes).
	ResponseBucket sim.Time

	// Migration selects the controller mode.
	Migration MigrationMode

	// OpenLoopRate switches the replayer from closed loop (each user
	// stream issues its next record when the previous completes — the
	// default) to open loop: records arrive on a fixed schedule at this
	// aggregate rate in operations per second of virtual time,
	// regardless of completions. Open loop exposes overload: a
	// saturated hot OSD accumulates queue without the closed loop's
	// self-limiting, which is the regime where migration's balancing
	// pays off most visibly. 0 keeps the closed loop.
	OpenLoopRate float64

	// Seed drives the warm-up churn: which objects, and which pages of
	// them, the steady-state fill rewrites on each SSD.
	Seed uint64

	// CheckpointEvery arms the checkpoint cadence: every this many fired
	// simulation events, the hook installed with Cluster.SetCheckpoint
	// runs between events. The cadence counts absolute fired events, so
	// a resumed run checkpoints at the same event numbers as an
	// uninterrupted one. 0 (the default) disables checkpointing. The
	// hook itself is a func and therefore lives outside Config — Config
	// must stay JSON-serializable for the wire spec contract.
	CheckpointEvery uint64

	// Scratch, when non-nil, donates reusable hot-path buffers (RAID
	// access scratch, pooled completion records, histogram sample
	// storage) to this run. Recover the grown buffers with
	// Cluster.Release after Run to recycle them into the next run —
	// the experiment harness keeps a sync.Pool of these. Never encoded.
	Scratch *Scratch `json:"-"`

	// TestHooks plants deliberate defects for the chaos harness's
	// self-test (internal/chaos must demonstrate it finds and shrinks a
	// real invariant violation). The zero value plants nothing;
	// production code never sets this.
	TestHooks TestHooks
}

// TestHooks are deliberately planted defects, armed only by tests.
type TestHooks struct {
	// MiscountLostOps makes degraded fan-out count a successful
	// reconstruction from exactly k−1 survivors as a lost operation —
	// violating the chaos invariant that lost operations require a
	// double failure in distinct groups.
	MiscountLostOps bool
}

func (c *Config) applyDefaults() {
	if c.Groups == 0 {
		c.Groups = 4
	}
	if c.ObjectsPerFile == 0 {
		c.ObjectsPerFile = 4
	}
	if c.TemperatureInterval == 0 {
		c.TemperatureInterval = sim.Minute
	}
	if c.ResponseBucket == 0 {
		c.ResponseBucket = 3 * sim.Minute
	}
}

// Validate reports configuration errors after defaulting. Every failure
// wraps ErrInvalidConfig.
func (c Config) Validate() error {
	if c.OSDs <= 0 {
		return fmt.Errorf("cluster: need at least 1 OSD, got %d: %w", c.OSDs, ErrInvalidConfig)
	}
	return nil
}
