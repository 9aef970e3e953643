package cluster

import (
	"fmt"
	"sort"

	"edm/internal/flash"
	"edm/internal/metrics"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/placement"
	"edm/internal/raid"
	"edm/internal/rng"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
	"edm/internal/trace"
	"edm/internal/wear"
)

// OSD is one object storage device: an SSD, its object store, the
// access tracker, and a serial service queue modelled by a busy-until
// horizon (requests are admitted in event order, which in a closed-loop
// replay equals virtual-time order). Fork copies an OSD by value and
// then clones its SSD, store and tracker, so every other field must be
// a plain value.
type OSD struct {
	ID      int
	Group   int
	SSD     *flash.SSD
	Store   *object.Store
	Tracker *temperature.Tracker

	busyUntil sim.Time
	load      metrics.EWMA

	// Transient latency degradation (SlowOSD): while now < slowUntil,
	// device service takes slowFactor times its normal latency.
	slowUntil  sim.Time
	slowFactor float64

	// Per-device counters for the current run.
	subOps    uint64
	busyTime  sim.Time
	busyAtMig sim.Time // busyTime when the migration round started
}

// scaledLat applies the device's transient slowdown window, if open at
// now, to a service latency. Queueing and fixed overheads are not
// scaled — the degradation models a slow medium, not a slow network.
func (o *OSD) scaledLat(lat, now sim.Time) sim.Time {
	if o.slowFactor > 1 && now < o.slowUntil {
		return sim.Time(float64(lat) * o.slowFactor)
	}
	return lat
}

// LoadFactor returns the EWMA of served request latencies in seconds —
// CMT's load metric.
func (o *OSD) LoadFactor() float64 { return o.load.Value() }

// Cluster is the simulated storage system. Its state comes in five
// parts, and a tier-1 test fails on a field that belongs to none:
//
//   - counters: the run's scalars, copied by assignment and sealed as
//     one section;
//   - build: fixed by New and shared read-only by forks;
//   - the run's references (engine, devices, tables, maps, samples),
//     each deep-copied by Fork;
//   - observers and attachments (planner, recorder, metrics, hooks),
//     which a fork starts without;
//   - scratch: reusable buffers, recycled across runs.
type Cluster struct {
	counters
	build

	eng    *sim.Engine
	osds   []*OSD
	remap  *remapStats
	stream *rng.Stream

	// Dense object metadata that moves change: the OSD holding each
	// object and its store (== tracker) slot there, by dense index.
	// Only relocate writes them once New has built the cluster.
	owner []int32
	oslot []object.Index

	moves  []migration.Move
	failed map[int]bool // failure injection (RAID-5 degraded mode)

	// HDF blocking (§V.D): requests whose target object is locked by an
	// in-flight move park on a wait list until the move commits.
	locked  map[object.ID]bool
	waiters map[object.ID][]pendingOp

	respSeries *metrics.TimeSeries
	respAll    *metrics.Histogram
	respMigr   *metrics.Histogram // ops served while migration in flight

	planner    migration.Planner
	wearTicker *sim.Ticker

	// Checkpoint hook (SetCheckpoint). The hook is armed on the engine
	// only while the run is live — never during a FastForward replay,
	// which must not rewrite checkpoints.
	ckFn   func(now sim.Time) error
	ckPoll uint64

	// Telemetry (nil/zero when disabled — the hot paths nil-check),
	// attached by SetRecorder and SetMetrics.
	rec      telemetry.Recorder
	metrics  *telemetry.Registry
	parked   *telemetry.Counter
	respHist *telemetry.Histogram

	scratch
}

// counters holds every scalar of a run. The per-operation ones come
// first, so the replay loop touches one cache line of them.
type counters struct {
	completedOps int
	totalOps     int
	migrateAfter int // completed-op count that triggers the midpoint shuffle
	migrating    bool
	rejected     uint64
	// blockedSubOps counts file operations that parked on an HDF lock.
	blockedSubOps uint64

	migrations int
	// movesCommitted counts migration moves that actually committed
	// (planned moves may be skipped or aborted); together with rebuilt
	// it must equal the remap table's move count — an Audit invariant.
	movesCommitted   uint64
	movedPages       int64
	movedBytes       int64
	migStart, migEnd sim.Time

	// Failure injection (RAID-5 degraded mode) and declustered rebuild.
	failedAt      sim.Time
	degradedOps   uint64
	lostOps       uint64
	rebuilt       int
	rebuiltBytes  int64
	unrebuildable int
	rebuildStart  sim.Time
	rebuildEnd    sim.Time
}

// build is what New derives from the configuration and the trace, and
// never changes afterwards (Retarget alone rewrites a fork's own copy of
// the migration mode).
type build struct {
	cfg    Config
	layout placement.Layout
	geom   raid.Geometry
	tr     *trace.Trace

	// Dense object metadata tables: every traced object gets a stable
	// index oi = rank(file)·k + objInFile, where ranks number the trace's
	// files in ascending-id order — so index order equals object-id
	// order, which the planners' tiebreak relies on. The replay, the
	// mover and the rebuilder resolve owner OSD, store slot and tracker
	// slot by slice indexing (objIndex) instead of map lookups.
	k         int32
	fileRanks []int32                // dense file id → rank; -1 for gaps
	rankByID  map[trace.FileID]int32 // fallback for sparse/huge file ids
	oids      []object.ID
	ohome     []int32 // cached hash-placement home
	wmodel    wear.Model
}

// New builds a cluster sized for the given trace: every SSD gets the
// same capacity, chosen so the most loaded OSD sits at about the target
// utilization (§IV). The trace's files are created and populated, and
// the warm-up churn is applied, before New returns; the engine clock is
// still zero and all wear counters are reset.
func New(cfg Config, tr *trace.Trace) (*Cluster, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout := placement.Layout{N: cfg.OSDs, M: cfg.Groups, K: cfg.ObjectsPerFile, Sizes: cfg.GroupSizes}
	if cfg.GroupRotate {
		layout.Mode = placement.ModeGroupRotate
	}
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w: %w", err, ErrInvalidConfig)
	}
	geom := raid.Geometry{K: cfg.ObjectsPerFile, StripeUnit: stripeUnit}
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w: %w", err, ErrInvalidConfig)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	c := &Cluster{
		build:      build{cfg: cfg, layout: layout, geom: geom, tr: tr},
		remap:      &remapStats{},
		stream:     rng.New(cfg.Seed ^ 0xedc0ffee),
		locked:     make(map[object.ID]bool),
		waiters:    make(map[object.ID][]pendingOp),
		failed:     make(map[int]bool),
		respSeries: metrics.NewTimeSeries(cfg.ResponseBucket.Seconds()),
		respAll:    &metrics.Histogram{},
		respMigr:   &metrics.Histogram{},
	}
	c.adopt(cfg.Scratch)
	c.cfg.Scratch = nil
	if c.eng, c.engine = c.engine, nil; c.eng == nil {
		c.eng = sim.New()
	}
	if err := c.buildDevices(); err != nil {
		return nil, err
	}
	c.buildObjectTables()
	if err := c.createFiles(); err != nil {
		return nil, err
	}
	if !cfg.WarmupDisabled {
		c.warmup()
	}
	for _, o := range c.osds {
		o.SSD.ResetStats()
	}
	return c, nil
}

// flashProbe forwards FTL-internal events to the telemetry recorder,
// stamping the engine clock and the device id the SSD does not know.
type flashProbe struct {
	c   *Cluster
	osd int
}

func (p flashProbe) OnErase(validRatio float64, moved int) {
	p.c.rec.FlashErase(telemetry.FlashErase{
		T: p.c.eng.Now(), OSD: p.osd, ValidRatio: validRatio, Moved: moved,
	})
}

// SetRecorder installs the event recorder (nil, the default, traces
// nothing: the hot paths then pay one nil-check per event). Install it
// after New, whose warm-up it does not see, and before Run.
func (c *Cluster) SetRecorder(rec telemetry.Recorder) {
	c.rec = rec
	for _, o := range c.osds {
		var p flash.Probe
		if rec != nil {
			p = flashProbe{c: c, osd: o.ID}
		}
		o.SSD.SetProbe(p)
	}
}

// SetMetrics registers the cluster's columns into reg and samples them
// every `every` of virtual time (zero takes 30 s) from a between-events
// engine hook until the last operation completes, then once more at the
// makespan. Call it once, after New and before Run.
func (c *Cluster) SetMetrics(reg *telemetry.Registry, every sim.Time) {
	if every <= 0 {
		every = 30 * sim.Second
	}
	c.metrics = reg
	c.registerMetrics(reg)
	c.eng.SetSampler(every, reg.Sample)
}

// registerMetrics publishes the cluster's observable state as named
// telemetry columns. Registration order fixes the CSV column order.
func (c *Cluster) registerMetrics(reg *telemetry.Registry) {
	reg.Gauge("completed_ops", func(sim.Time) float64 { return float64(c.completedOps) })
	reg.Gauge("moved_objects", func(sim.Time) float64 { return float64(len(c.moves)) })
	reg.Gauge("remap_entries", func(sim.Time) float64 { return float64(c.remap.entries) })
	c.parked = reg.Counter("parked_ops")
	c.respHist = reg.Histogram("response_s")
	for _, o := range c.osds {
		o := o
		reg.Gauge(fmt.Sprintf("osd%d.erases", o.ID), func(sim.Time) float64 {
			return float64(o.SSD.Stats().Erases)
		})
		reg.Gauge(fmt.Sprintf("osd%d.write_pages", o.ID), func(sim.Time) float64 {
			return float64(o.SSD.Stats().HostPageWrites)
		})
		reg.Gauge(fmt.Sprintf("osd%d.util", o.ID), func(sim.Time) float64 {
			return o.SSD.Utilization()
		})
		reg.Gauge(fmt.Sprintf("osd%d.backlog_ms", o.ID), func(now sim.Time) float64 {
			if o.busyUntil <= now {
				return 0
			}
			return float64(o.busyUntil-now) / float64(sim.Millisecond)
		})
	}
}

// Engine exposes the simulation engine (examples and tests).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Config returns the cluster's configuration with defaults applied.
func (c *Cluster) Config() Config { return c.cfg }

// Layout returns the placement geometry.
func (c *Cluster) Layout() placement.Layout { return c.layout }

// OSD returns device i.
func (c *Cluster) OSD(i int) *OSD { return c.osds[i] }

// OSDs returns the device count.
func (c *Cluster) OSDs() int { return len(c.osds) }

// SetPlanner installs the migration policy (nil for the baseline).
func (c *Cluster) SetPlanner(p migration.Planner) { c.planner = p }

// SetCheckpoint installs the checkpoint hook, called between simulation
// events every Config.CheckpointEvery fired events while a run (or a
// resumed continuation) is live. The hook lives outside Config so that
// Config stays JSON-serializable; install it after New and before Run.
// A nil fn (or CheckpointEvery == 0) disables checkpointing.
func (c *Cluster) SetCheckpoint(fn func(now sim.Time) error) { c.ckFn = fn }

// SetCheckpointPoll makes the checkpoint hook run also whenever the
// fired count reaches a multiple of poll — the positions at which a
// demand trigger is polled — besides every Config.CheckpointEvery
// events. Zero, the default, runs it on the cadence alone.
func (c *Cluster) SetCheckpointPoll(poll uint64) { c.ckPoll = poll }

// objectID derives the cluster-unique object id of a file's idx-th
// object.
func (c *Cluster) objectID(f trace.FileID, idx int) object.ID {
	return object.ID(int64(f)*int64(c.cfg.ObjectsPerFile) + int64(idx))
}

// objectHome returns the hash-placement home OSD of an object id.
func (c *Cluster) objectHome(id object.ID) int {
	k := int64(c.cfg.ObjectsPerFile)
	return c.layout.HomeOf(int64(id)/k, int(int64(id)%k))
}

// remapStats counts the growth of the remapping table (§III.C). The
// table itself is a view of the owner column: an object has an entry
// while it lives away from its home, owner[oi] != ohome[oi].
type remapStats struct {
	moves    uint64 // relocations recorded
	inserts  uint64 // relocations that created an entry
	updates  uint64 // relocations that rewrote an entry
	removals uint64 // relocations home, which dropped an entry
	entries  int    // current size
	peak     int    // high-water mark
}

// relocate records that object oi now lives at slot on dst, counting
// the table entry that creates, rewrites or drops.
func (c *Cluster) relocate(oi int32, dst int, slot object.Index) {
	r, had := c.remap, c.owner[oi] != c.ohome[oi]
	r.moves++
	switch {
	case int32(dst) == c.ohome[oi]:
		if had {
			r.removals++
			r.entries--
		}
	case had:
		r.updates++
	default:
		r.inserts++
		r.entries++
		r.peak = max(r.peak, r.entries)
	}
	c.owner[oi], c.oslot[oi] = int32(dst), slot
}

// rankOf returns the file's dense rank, or −1 for files outside the
// trace. Sparse file ids (a decoded trace may use any int64) resolve
// through rankByID.
func (c *Cluster) rankOf(f trace.FileID) int32 {
	if c.fileRanks != nil {
		if f < 0 || int64(f) >= int64(len(c.fileRanks)) {
			return -1
		}
		return c.fileRanks[f]
	}
	if r, ok := c.rankByID[f]; ok {
		return r
	}
	return -1
}

// objIndex returns the dense table index of traced file f's j-th
// object: the row of owner, oslot, ohome and oids that describes it.
func (c *Cluster) objIndex(f trace.FileID, j int) int32 {
	return c.rankOf(f)*c.k + int32(j)
}

// indexOf is objIndex for a traced object's id.
func (c *Cluster) indexOf(id object.ID) int32 {
	k := int64(c.k)
	return c.objIndex(trace.FileID(int64(id)/k), int(int64(id)%k))
}

// buildObjectTables assigns every traced object its dense index and
// prefills the id/owner/home columns (slots are bound in createFiles).
// Ranks follow ascending file-id order; the trace generator mints dense
// file ids so the rank lookup is usually a plain slice, with a map
// fallback for decoded traces with sparse ids.
func (c *Cluster) buildObjectTables() {
	k := c.cfg.ObjectsPerFile
	c.k = int32(k)
	n := len(c.tr.Files)
	ids := make([]trace.FileID, n)
	for i, f := range c.tr.Files {
		ids[i] = f.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	dense := true
	var maxID int64 = -1
	if n > 0 {
		if ids[0] < 0 {
			dense = false
		}
		maxID = int64(ids[n-1])
	}
	if dense && maxID < int64(4*n+1024) {
		ranks := make([]int32, maxID+1)
		for i := range ranks {
			ranks[i] = -1
		}
		for r, f := range ids {
			ranks[int(f)] = int32(r)
		}
		c.fileRanks = ranks
	} else {
		c.rankByID = make(map[trace.FileID]int32, n)
		for r, f := range ids {
			c.rankByID[f] = int32(r)
		}
	}

	total := n * k
	c.oids = make([]object.ID, total)
	c.owner = make([]int32, total)
	c.oslot = make([]object.Index, total)
	c.ohome = make([]int32, 0, total)
	for _, f := range ids {
		c.ohome = c.layout.AppendHomes(c.ohome, int64(f))
	}
	for r, f := range ids {
		for i := 0; i < k; i++ {
			oi := r*k + i
			c.oids[oi] = c.objectID(f, i)
			c.owner[oi] = c.ohome[oi]
		}
	}
	c.wmodel = wear.NewModel(c.osds[0].SSD.Config().PagesPerBlock, wear.DefaultSigma)
}

// buildDevices sizes and constructs the SSDs. All SSDs are identical;
// capacity is derived from the heaviest OSD's placed data so that its
// utilization is about the target.
func (c *Cluster) buildDevices() error {
	const pageSize, ppb = flash.DefaultPageSize, flash.DefaultPagesPerBlock

	// Dry placement pass: pages each OSD will hold.
	perOSD := make([]int64, c.cfg.OSDs)
	for _, f := range c.tr.Files {
		for idx := 0; idx < c.cfg.ObjectsPerFile; idx++ {
			objBytes := c.geom.ObjectDataBytes(f.Size, idx)
			pages := (objBytes + pageSize - 1) / pageSize
			if pages == 0 {
				pages = 1
			}
			perOSD[c.layout.HomeOf(int64(f.ID), idx)] += pages
		}
	}
	var maxPages int64 = 1
	for _, p := range perOSD {
		if p > maxPages {
			maxPages = p
		}
	}

	// Physical sizing: live/total == target at the heaviest device,
	// plus the GC reserve excluded from the logical space.
	totalPages := int64(float64(maxPages)/targetMaxUtilization) + 1
	fcfg := flash.Config{
		PageSize:      pageSize,
		PagesPerBlock: ppb,
		Blocks:        int((totalPages+ppb-1)/ppb + gcHighBlocks + 1),
		GCLowBlocks:   gcLowBlocks,
		GCHighBlocks:  gcHighBlocks,
	}

	c.osds = c.recycleOSDs(c.cfg.OSDs)
	for i, o := range c.osds {
		if err := o.SSD.Reset(fcfg); err != nil {
			return fmt.Errorf("cluster: building SSD %d: %w", i, err)
		}
		o.Store.Reset(o.SSD)
		o.Tracker.Reset(c.cfg.TemperatureInterval)
		*o = OSD{
			ID:      i,
			Group:   c.layout.GroupOf(i),
			SSD:     o.SSD,
			Store:   o.Store,
			Tracker: o.Tracker,
			load:    *metrics.NewEWMA(loadEWMAAlpha),
		}
	}
	return nil
}

// createFiles pre-creates and populates every traced file (§V.A),
// binding each object's store slot and tracker row to its dense index.
func (c *Cluster) createFiles() error {
	for _, f := range c.tr.Files {
		for idx := 0; idx < c.cfg.ObjectsPerFile; idx++ {
			oi := c.objIndex(f.ID, idx)
			id := c.oids[oi]
			osd := c.osds[c.ohome[oi]]
			objBytes := c.geom.ObjectDataBytes(f.Size, idx)
			slot, err := osd.Store.CreateIndexed(id, objBytes)
			if err != nil {
				return fmt.Errorf("cluster: creating object %d on OSD %d: %w", id, osd.ID, err)
			}
			osd.Tracker.InstallAt(temperature.Slot(slot))
			c.oslot[oi] = slot
			if _, err := osd.Store.PopulateAt(slot); err != nil {
				return fmt.Errorf("cluster: populating object %d on OSD %d: %w", id, osd.ID, err)
			}
		}
	}
	return nil
}

// warmup writes dummy data equal to each SSD's capacity (uniformly over
// the live objects) so the replay starts in wear steady-state (§IV).
func (c *Cluster) warmup() {
	for _, o := range c.osds {
		// Ascending object-id order, so the draws below pick the same
		// objects whatever slots the store handed out. Writes create and
		// delete nothing, so the store's slice stays valid throughout.
		slots := o.Store.SortedIndices()
		if len(slots) == 0 {
			continue
		}
		stream := c.stream.Split(uint64(o.ID) + 101)
		target := o.SSD.TotalPages()
		// Populate already wrote the live set once.
		written := int64(o.SSD.Stats().HostPageWrites)
		for written < target {
			sl := slots[stream.Intn(len(slots))]
			pages := o.Store.PagesAt(sl)
			if pages <= 0 {
				continue
			}
			pg := stream.Int63n(pages)
			n := int64(8)
			if pg+n > pages {
				n = pages - pg
			}
			if _, err := o.Store.WriteAt(sl, pg*o.Store.PageSize(), n*o.Store.PageSize()); err != nil {
				break // device saturated; steady state reached anyway
			}
			written += n
		}
	}
}
