package check

import (
	"math"

	"edm/internal/sim"
	"edm/internal/telemetry"
)

// Checker is a telemetry.Recorder decorator that verifies event-stream
// invariants online and forwards every event unchanged to an optional
// inner recorder. Install it with Cluster.SetRecorder (wrapping any
// tracer that should still see the stream) before the run, and call
// Finish — or Audit, which also folds in the cluster's state audit —
// after it.
//
// The checker assumes it observes the stream from the start of the
// measured replay (SetRecorder is called after New has warmed the
// cluster up, so this holds for any installed checker).
type Checker struct {
	inner telemetry.Recorder // forwarded to when non-nil

	// MinResponse, when positive, is the smallest legal response time
	// of a completed request: the cluster charges at least the network
	// overhead or the MDS latency per operation. Bind sets it to
	// cluster.MinResponse. Enforcement stops once a device failure is
	// observed (operations on doubly-failed stripes complete without
	// service).
	MinResponse sim.Time

	// pagesPerBlock, when set via SetPagesPerBlock (or Bind), lets the
	// checker verify that each GC victim relocated exactly the pages its
	// valid ratio implies.
	pagesPerBlock int

	report   Report
	finished bool

	lastT      sim.Time
	starts     uint64
	completes  uint64
	anyFailure bool

	parked    map[int64]int  // object -> parked requests not yet resumed
	openMoves map[int64]bool // object -> move started, not committed
	commits   uint64
	round     int
	planned   map[int]int    // migration round -> planned move count
	erases    map[int]uint64 // OSD -> observed erase events
	failed    map[int]bool   // OSD -> device failed
}

var _ telemetry.Recorder = (*Checker)(nil)

// Wrap builds a Checker forwarding to inner (nil is fine: the checker
// then terminates the recorder chain).
func Wrap(inner telemetry.Recorder) *Checker {
	return &Checker{
		inner:     inner,
		parked:    make(map[int64]int),
		openMoves: make(map[int64]bool),
		planned:   make(map[int]int),
		erases:    make(map[int]uint64),
		failed:    make(map[int]bool),
	}
}

// SetPagesPerBlock enables the erase-geometry check (moved pages ==
// valid ratio × pages per block).
func (ck *Checker) SetPagesPerBlock(n int) { ck.pagesPerBlock = n }

// Erases returns the number of erase events observed on one OSD —
// Audit's cross-check against the device's own counter.
func (ck *Checker) Erases(osd int) uint64 { return ck.erases[osd] }

// Finish closes the stream: balance laws that can only be judged at
// end of run (every start completed, wait lists drained, no move left
// open) are applied and the report is returned. Further events after
// Finish are not expected; Finish is idempotent.
func (ck *Checker) Finish() *Report {
	if ck.finished {
		return &ck.report
	}
	ck.finished = true
	if ck.starts != ck.completes {
		ck.report.add("request.balance", "%d requests started but %d completed", ck.starts, ck.completes)
	}
	if n := len(ck.parked); n != 0 {
		ck.report.add("wait.drain", "%d objects still have parked requests at end of run", n)
	}
	if n := len(ck.openMoves); n != 0 {
		ck.report.add("migration.move.open", "%d object moves started but never committed", n)
	}
	ck.report.sorted()
	return &ck.report
}

// observe applies the global law every event obeys: virtual timestamps
// never decrease.
func (ck *Checker) observe(kind string, t sim.Time) {
	ck.report.Events++
	if t < ck.lastT {
		ck.report.add("time.monotonic", "%s at t=%v after an event at t=%v", kind, t, ck.lastT)
	} else {
		ck.lastT = t
	}
}

// RequestStart implements telemetry.Recorder.
func (ck *Checker) RequestStart(ev telemetry.RequestStart) {
	ck.observe(ev.Kind(), ev.T)
	ck.starts++
	if ev.Size < 0 {
		ck.report.add("request.size", "%s of %d bytes on file %d", ev.Op, ev.Size, ev.File)
	}
	if ck.inner != nil {
		ck.inner.RequestStart(ev)
	}
}

// RequestComplete implements telemetry.Recorder.
func (ck *Checker) RequestComplete(ev telemetry.RequestComplete) {
	ck.observe(ev.Kind(), ev.T)
	ck.completes++
	if ck.completes > ck.starts {
		ck.report.add("request.balance", "completion #%d before a matching start", ck.completes)
	}
	if ev.T < ev.Issued {
		ck.report.add("request.causal", "%s completed at t=%v before its issue at t=%v", ev.Op, ev.T, ev.Issued)
	} else if ck.MinResponse > 0 && !ck.anyFailure && ev.T-ev.Issued < ck.MinResponse {
		ck.report.add("request.service", "%s response %v below the minimum service time %v",
			ev.Op, ev.T-ev.Issued, ck.MinResponse)
	}
	if ck.inner != nil {
		ck.inner.RequestComplete(ev)
	}
}

// QueueSample implements telemetry.Recorder.
func (ck *Checker) QueueSample(ev telemetry.QueueSample) {
	ck.observe(ev.Kind(), ev.T)
	if ev.Wait < 0 {
		ck.report.add("queue.wait", "osd %d: negative wait %v", ev.OSD, ev.Wait)
	}
	if ev.Backlog < ev.Wait {
		ck.report.add("queue.backlog", "osd %d: backlog %v below wait %v", ev.OSD, ev.Backlog, ev.Wait)
	}
	if ck.failed[ev.OSD] {
		// Degraded operations must touch only survivors: a failed device
		// serves nothing between its failure and its repair.
		ck.report.add("failure.service", "osd %d served a sub-operation while failed", ev.OSD)
	}
	if ck.inner != nil {
		ck.inner.QueueSample(ev)
	}
}

// FlashWrite implements telemetry.Recorder.
func (ck *Checker) FlashWrite(ev telemetry.FlashWrite) {
	ck.observe(ev.Kind(), ev.T)
	if ev.Pages <= 0 {
		ck.report.add("flash.write", "osd %d: %d pages programmed for object %d", ev.OSD, ev.Pages, ev.Obj)
	}
	if ck.failed[ev.OSD] {
		ck.report.add("failure.service", "osd %d programmed flash pages while failed", ev.OSD)
	}
	if ck.inner != nil {
		ck.inner.FlashWrite(ev)
	}
}

// FlashErase implements telemetry.Recorder.
func (ck *Checker) FlashErase(ev telemetry.FlashErase) {
	ck.observe(ev.Kind(), ev.T)
	ck.erases[ev.OSD]++
	if ev.ValidRatio < 0 || ev.ValidRatio >= 1 {
		// A victim with every page still valid reclaims nothing; GC
		// must never pick one, so the measured u_r sample sits in [0,1).
		ck.report.add("flash.erase.ratio", "osd %d: victim valid ratio %v outside [0,1)", ev.OSD, ev.ValidRatio)
	}
	if ev.Moved < 0 {
		ck.report.add("flash.erase.moved", "osd %d: negative relocation count %d", ev.OSD, ev.Moved)
	}
	if ppb := ck.pagesPerBlock; ppb > 0 {
		if math.Abs(ev.ValidRatio*float64(ppb)-float64(ev.Moved)) > 1e-6 {
			ck.report.add("flash.erase.moved", "osd %d: relocated %d pages but valid ratio %v of %d pages/block implies %v",
				ev.OSD, ev.Moved, ev.ValidRatio, ppb, ev.ValidRatio*float64(ppb))
		}
	}
	if ck.inner != nil {
		ck.inner.FlashErase(ev)
	}
}

// MigrationTrigger implements telemetry.Recorder.
func (ck *Checker) MigrationTrigger(ev telemetry.MigrationTrigger) {
	ck.observe(ev.Kind(), ev.T)
	if ev.RSD < 0 {
		ck.report.add("migration.trigger", "%s: negative RSD %v", ev.Policy, ev.RSD)
	}
	if ck.inner != nil {
		ck.inner.MigrationTrigger(ev)
	}
}

// MigrationPlan implements telemetry.Recorder.
func (ck *Checker) MigrationPlan(ev telemetry.MigrationPlan) {
	ck.observe(ev.Kind(), ev.T)
	if ev.Round != ck.round+1 {
		ck.report.add("migration.rounds", "round %d announced after round %d", ev.Round, ck.round)
	}
	ck.round = ev.Round
	ck.planned[ev.Round] = ev.Moves
	if ev.Moves <= 0 {
		ck.report.add("migration.plan", "round %d plans %d moves (empty plans are not announced)", ev.Round, ev.Moves)
	}
	if ck.inner != nil {
		ck.inner.MigrationPlan(ev)
	}
}

// ObjectMoveStart implements telemetry.Recorder.
func (ck *Checker) ObjectMoveStart(ev telemetry.ObjectMoveStart) {
	ck.observe(ev.Kind(), ev.T)
	if ck.openMoves[ev.Obj] {
		ck.report.add("migration.move.dup", "object %d picked up while its previous move is still open", ev.Obj)
	}
	ck.openMoves[ev.Obj] = true
	if ev.Src == ev.Dst {
		ck.report.add("migration.move.self", "object %d moved from osd %d to itself", ev.Obj, ev.Src)
	}
	if ck.inner != nil {
		ck.inner.ObjectMoveStart(ev)
	}
}

// ObjectMoveCommit implements telemetry.Recorder.
func (ck *Checker) ObjectMoveCommit(ev telemetry.ObjectMoveCommit) {
	ck.observe(ev.Kind(), ev.T)
	if !ck.openMoves[ev.Obj] {
		ck.report.add("migration.move.unmatched", "object %d committed without a matching start", ev.Obj)
	}
	delete(ck.openMoves, ev.Obj)
	ck.commits++
	if ck.inner != nil {
		ck.inner.ObjectMoveCommit(ev)
	}
}

// MigrationRoundEnd implements telemetry.Recorder.
func (ck *Checker) MigrationRoundEnd(ev telemetry.MigrationRoundEnd) {
	ck.observe(ev.Kind(), ev.T)
	if want, ok := ck.planned[ev.Round]; !ok {
		ck.report.add("migration.rounds", "round %d ended without a plan", ev.Round)
	} else if want != ev.Moved {
		ck.report.add("migration.round.count", "round %d ended with %d moves, plan had %d", ev.Round, ev.Moved, want)
	}
	if ck.inner != nil {
		ck.inner.MigrationRoundEnd(ev)
	}
}

// WaitPark implements telemetry.Recorder.
func (ck *Checker) WaitPark(ev telemetry.WaitPark) {
	ck.observe(ev.Kind(), ev.T)
	ck.parked[ev.Obj]++
	if ck.inner != nil {
		ck.inner.WaitPark(ev)
	}
}

// WaitResume implements telemetry.Recorder.
func (ck *Checker) WaitResume(ev telemetry.WaitResume) {
	ck.observe(ev.Kind(), ev.T)
	if got := ck.parked[ev.Obj]; got != ev.Resumed {
		ck.report.add("wait.balance", "object %d resumed %d requests but %d parked", ev.Obj, ev.Resumed, got)
	}
	delete(ck.parked, ev.Obj)
	if ck.inner != nil {
		ck.inner.WaitResume(ev)
	}
}

// DeviceFailure implements telemetry.Recorder.
func (ck *Checker) DeviceFailure(ev telemetry.DeviceFailure) {
	ck.observe(ev.Kind(), ev.T)
	ck.anyFailure = true
	if ck.failed[ev.OSD] {
		ck.report.add("failure.dup", "osd %d failed twice", ev.OSD)
	}
	ck.failed[ev.OSD] = true
	if ck.inner != nil {
		ck.inner.DeviceFailure(ev)
	}
}

// DeviceRepair implements telemetry.Recorder.
func (ck *Checker) DeviceRepair(ev telemetry.DeviceRepair) {
	ck.observe(ev.Kind(), ev.T)
	if !ck.failed[ev.OSD] {
		ck.report.add("repair.live", "osd %d repaired but never failed", ev.OSD)
	}
	delete(ck.failed, ev.OSD)
	if ck.inner != nil {
		ck.inner.DeviceRepair(ev)
	}
}

// DeviceSlowdown implements telemetry.Recorder.
func (ck *Checker) DeviceSlowdown(ev telemetry.DeviceSlowdown) {
	ck.observe(ev.Kind(), ev.T)
	if ev.Factor < 1 {
		ck.report.add("slowdown.factor", "osd %d: slowdown factor %v below 1", ev.OSD, ev.Factor)
	}
	if ev.Until < ev.T {
		ck.report.add("slowdown.window", "osd %d: slowdown ends at t=%v before it starts at t=%v", ev.OSD, ev.Until, ev.T)
	}
	if ck.inner != nil {
		ck.inner.DeviceSlowdown(ev)
	}
}

// RebuildStart implements telemetry.Recorder.
func (ck *Checker) RebuildStart(ev telemetry.RebuildStart) {
	ck.observe(ev.Kind(), ev.T)
	if !ck.failed[ev.OSD] {
		ck.report.add("rebuild.source", "rebuild of osd %d, which never failed", ev.OSD)
	}
	if ck.inner != nil {
		ck.inner.RebuildStart(ev)
	}
}

// RebuildObject implements telemetry.Recorder.
func (ck *Checker) RebuildObject(ev telemetry.RebuildObject) {
	ck.observe(ev.Kind(), ev.T)
	if !ck.failed[ev.From] {
		ck.report.add("rebuild.source", "object %d rebuilt from osd %d, which never failed", ev.Obj, ev.From)
	}
	if ck.failed[ev.To] {
		ck.report.add("rebuild.dest", "object %d rebuilt onto failed osd %d", ev.Obj, ev.To)
	}
	if ck.inner != nil {
		ck.inner.RebuildObject(ev)
	}
}

// RebuildEnd implements telemetry.Recorder.
func (ck *Checker) RebuildEnd(ev telemetry.RebuildEnd) {
	ck.observe(ev.Kind(), ev.T)
	if ck.inner != nil {
		ck.inner.RebuildEnd(ev)
	}
}
