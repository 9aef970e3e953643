// Package telemetry is the observability layer of the EDM simulator: a
// zero-overhead-when-disabled event-tracing and metrics-export subsystem
// threaded through the whole stack.
//
// Three pieces:
//
//   - A Recorder interface with one typed method per event (request
//     start/complete, OSD queue samples, flash program/erase, migration
//     trigger/plan/move/commit, HDF wait-list park/resume,
//     failure/rebuild). Instrumented hot paths hold a Recorder that is
//     nil when telemetry is off, so the disabled cost is exactly one
//     nil-check and zero allocations per event; Nop is the no-op default
//     for callers that want a non-nil recorder.
//   - A Registry of named counters, gauges and histograms, sampled into
//     a snapshot series at virtual-time instants by a sim engine hook
//     that runs between events.
//   - Exporters: an NDJSON event log, a CSV snapshot series, and a
//     Chrome trace_event JSON that opens directly in chrome://tracing or
//     Perfetto (see export.go).
//
// Determinism: events carry virtual timestamps only, recorders append in
// callback order, and every exporter iterates in insertion or
// registration order — so the byte output of a run is a pure function of
// (spec, seed), a property the replay tests assert. Observers also stay
// off the run's own determinism path: a run takes them through
// edm.WithTelemetry and edm.WithMetrics, never through its spec, and
// neither takes an event-queue slot, so no result or checkpoint frame
// depends on which are attached.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"edm/internal/sim"
)

// Class groups event kinds for coarse filtering (the -telemetry-events
// flag). A Tracer records an event only when its class is enabled.
type Class uint32

// Event classes.
const (
	ClassRequest Class = 1 << iota
	ClassQueue
	ClassFlash
	ClassMigration
	ClassWait
	ClassFailure

	// ClassAll enables every class.
	ClassAll Class = 1<<iota - 1
)

var classNames = map[string]Class{
	"request":   ClassRequest,
	"queue":     ClassQueue,
	"flash":     ClassFlash,
	"migration": ClassMigration,
	"wait":      ClassWait,
	"failure":   ClassFailure,
	"all":       ClassAll,
}

// ClassNames lists the accepted class names in a stable order.
func ClassNames() []string {
	names := make([]string, 0, len(classNames))
	for n := range classNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseClasses parses a comma-separated class list ("request,migration";
// "all" or the empty string enables everything).
func ParseClasses(s string) (Class, error) {
	if strings.TrimSpace(s) == "" {
		return ClassAll, nil
	}
	var c Class
	for _, part := range strings.Split(s, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		if part == "" {
			continue
		}
		cl, ok := classNames[part]
		if !ok {
			return 0, fmt.Errorf("telemetry: unknown event class %q (valid: %s)",
				part, strings.Join(ClassNames(), ", "))
		}
		c |= cl
	}
	if c == 0 {
		return ClassAll, nil
	}
	return c, nil
}

// String renders the class set in ParseClasses form.
func (c Class) String() string {
	if c == ClassAll {
		return "all"
	}
	var parts []string
	for _, n := range ClassNames() {
		cl := classNames[n]
		if cl == ClassAll {
			continue
		}
		if c&cl != 0 {
			parts = append(parts, n)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Event is the common face of the typed event structs. Kind is the
// NDJSON discriminator; Time is the virtual instant the event describes;
// EventClass drives filtering.
type Event interface {
	Kind() string
	Time() sim.Time
	EventClass() Class
}

// RequestStart marks a file operation entering service (after any HDF
// wait).
type RequestStart struct {
	T      sim.Time `json:"t"`
	User   int      `json:"user"`
	Op     string   `json:"op"`
	File   int64    `json:"file"`
	Offset int64    `json:"off"`
	Size   int64    `json:"size"`
}

// RequestComplete marks a file operation's completion. Issued is the
// original issue time (before any HDF wait), so T−Issued is the full
// response time; Blocked reports whether the operation parked on an HDF
// object lock at least once.
type RequestComplete struct {
	T       sim.Time `json:"t"`
	Issued  sim.Time `json:"issued"`
	User    int      `json:"user"`
	Op      string   `json:"op"`
	File    int64    `json:"file"`
	Blocked bool     `json:"blocked"`
}

// QueueSample is emitted when a sub-operation is admitted to an OSD's
// serial queue. Backlog is the virtual time of work queued ahead of and
// including the sub-operation (the busy horizon minus now); Wait is the
// queueing delay the sub-operation itself will see.
type QueueSample struct {
	T       sim.Time `json:"t"`
	OSD     int      `json:"osd"`
	Backlog sim.Time `json:"backlog"`
	Wait    sim.Time `json:"wait"`
}

// FlashWrite records host page programs on one object (the FTL program
// path; GC cost is accounted by FlashErase).
type FlashWrite struct {
	T     sim.Time `json:"t"`
	OSD   int      `json:"osd"`
	Obj   int64    `json:"obj"`
	Pages int64    `json:"pages"`
}

// FlashErase records one garbage-collection victim: the block erase,
// the victim's valid-page ratio, and the pages relocated to reclaim it.
type FlashErase struct {
	T          sim.Time `json:"t"`
	OSD        int      `json:"osd"`
	ValidRatio float64  `json:"valid_ratio"`
	Moved      int      `json:"moved"`
}

// MigrationTrigger records one evaluation of a planner's trigger
// condition (§III.B.2).
type MigrationTrigger struct {
	T       sim.Time `json:"t"`
	Policy  string   `json:"policy"`
	RSD     float64  `json:"rsd"`
	Lambda  float64  `json:"lambda"`
	Fired   bool     `json:"fired"`
	Forced  bool     `json:"forced"`
	Sources int      `json:"sources"`
	Dests   int      `json:"dests"`
}

// MigrationPlan summarises a non-empty plan the cluster is about to
// execute.
type MigrationPlan struct {
	T      sim.Time `json:"t"`
	Policy string   `json:"policy"`
	Round  int      `json:"round"`
	Moves  int      `json:"moves"`
	Bytes  int64    `json:"bytes"`
}

// ObjectMoveStart marks the data mover picking up one object. Locks
// reports whether requests to the object block until the commit (HDF).
type ObjectMoveStart struct {
	T     sim.Time `json:"t"`
	Obj   int64    `json:"obj"`
	Src   int      `json:"src"`
	Dst   int      `json:"dst"`
	Bytes int64    `json:"bytes"`
	Locks bool     `json:"locks"`
}

// ObjectMoveCommit marks an object move committing: the destination copy
// is authoritative and the remap table is updated.
type ObjectMoveCommit struct {
	T     sim.Time `json:"t"`
	Obj   int64    `json:"obj"`
	Src   int      `json:"src"`
	Dst   int      `json:"dst"`
	Bytes int64    `json:"bytes"`
}

// MigrationRoundEnd marks the last in-flight move of a round completing.
type MigrationRoundEnd struct {
	T     sim.Time `json:"t"`
	Round int      `json:"round"`
	Moved int      `json:"moved"`
}

// WaitPark records a request parking on a locked (in-flight HDF) object
// — the §V.D blocking behind the Fig. 7 spike.
type WaitPark struct {
	T    sim.Time `json:"t"`
	Obj  int64    `json:"obj"`
	User int      `json:"user"`
}

// WaitResume records an object lock releasing and its parked requests
// resuming.
type WaitResume struct {
	T       sim.Time `json:"t"`
	Obj     int64    `json:"obj"`
	Resumed int      `json:"resumed"`
}

// DeviceFailure records a device failing (RAID-5 degraded mode begins).
type DeviceFailure struct {
	T   sim.Time `json:"t"`
	OSD int      `json:"osd"`
}

// DeviceRepair records a failed device returning to service (degraded
// mode ends for the stripes it serves).
type DeviceRepair struct {
	T   sim.Time `json:"t"`
	OSD int      `json:"osd"`
}

// DeviceSlowdown records a transient per-device latency degradation
// window opening: until Until, service on the device takes Factor times
// its normal latency.
type DeviceSlowdown struct {
	T      sim.Time `json:"t"`
	OSD    int      `json:"osd"`
	Factor float64  `json:"factor"`
	Until  sim.Time `json:"until"`
}

// RebuildStart marks a declustered rebuild beginning for a failed
// device's objects.
type RebuildStart struct {
	T       sim.Time `json:"t"`
	OSD     int      `json:"osd"`
	Objects int      `json:"objects"`
}

// RebuildObject marks one object reconstructed onto a group peer.
type RebuildObject struct {
	T     sim.Time `json:"t"`
	Obj   int64    `json:"obj"`
	From  int      `json:"from"`
	To    int      `json:"to"`
	Bytes int64    `json:"bytes"`
}

// RebuildEnd marks the rebuild chain draining.
type RebuildEnd struct {
	T             sim.Time `json:"t"`
	OSD           int      `json:"osd"`
	Rebuilt       int      `json:"rebuilt"`
	Unrebuildable int      `json:"unrebuildable"`
}

// Kind/Time/EventClass implementations. Kept together so adding an event
// means touching one visible block.

func (e RequestStart) Kind() string      { return "request.start" }
func (e RequestComplete) Kind() string   { return "request.complete" }
func (e QueueSample) Kind() string       { return "queue.sample" }
func (e FlashWrite) Kind() string        { return "flash.write" }
func (e FlashErase) Kind() string        { return "flash.erase" }
func (e MigrationTrigger) Kind() string  { return "migration.trigger" }
func (e MigrationPlan) Kind() string     { return "migration.plan" }
func (e ObjectMoveStart) Kind() string   { return "migration.move.start" }
func (e ObjectMoveCommit) Kind() string  { return "migration.move.commit" }
func (e MigrationRoundEnd) Kind() string { return "migration.round.end" }
func (e WaitPark) Kind() string          { return "wait.park" }
func (e WaitResume) Kind() string        { return "wait.resume" }
func (e DeviceFailure) Kind() string     { return "failure.device" }
func (e DeviceRepair) Kind() string      { return "failure.repair" }
func (e DeviceSlowdown) Kind() string    { return "failure.slowdown" }
func (e RebuildStart) Kind() string      { return "rebuild.start" }
func (e RebuildObject) Kind() string     { return "rebuild.object" }
func (e RebuildEnd) Kind() string        { return "rebuild.end" }

func (e RequestStart) Time() sim.Time      { return e.T }
func (e RequestComplete) Time() sim.Time   { return e.T }
func (e QueueSample) Time() sim.Time       { return e.T }
func (e FlashWrite) Time() sim.Time        { return e.T }
func (e FlashErase) Time() sim.Time        { return e.T }
func (e MigrationTrigger) Time() sim.Time  { return e.T }
func (e MigrationPlan) Time() sim.Time     { return e.T }
func (e ObjectMoveStart) Time() sim.Time   { return e.T }
func (e ObjectMoveCommit) Time() sim.Time  { return e.T }
func (e MigrationRoundEnd) Time() sim.Time { return e.T }
func (e WaitPark) Time() sim.Time          { return e.T }
func (e WaitResume) Time() sim.Time        { return e.T }
func (e DeviceFailure) Time() sim.Time     { return e.T }
func (e DeviceRepair) Time() sim.Time      { return e.T }
func (e DeviceSlowdown) Time() sim.Time    { return e.T }
func (e RebuildStart) Time() sim.Time      { return e.T }
func (e RebuildObject) Time() sim.Time     { return e.T }
func (e RebuildEnd) Time() sim.Time        { return e.T }

func (e RequestStart) EventClass() Class      { return ClassRequest }
func (e RequestComplete) EventClass() Class   { return ClassRequest }
func (e QueueSample) EventClass() Class       { return ClassQueue }
func (e FlashWrite) EventClass() Class        { return ClassFlash }
func (e FlashErase) EventClass() Class        { return ClassFlash }
func (e MigrationTrigger) EventClass() Class  { return ClassMigration }
func (e MigrationPlan) EventClass() Class     { return ClassMigration }
func (e ObjectMoveStart) EventClass() Class   { return ClassMigration }
func (e ObjectMoveCommit) EventClass() Class  { return ClassMigration }
func (e MigrationRoundEnd) EventClass() Class { return ClassMigration }
func (e WaitPark) EventClass() Class          { return ClassWait }
func (e WaitResume) EventClass() Class        { return ClassWait }
func (e DeviceFailure) EventClass() Class     { return ClassFailure }
func (e DeviceRepair) EventClass() Class      { return ClassFailure }
func (e DeviceSlowdown) EventClass() Class    { return ClassFailure }
func (e RebuildStart) EventClass() Class      { return ClassFailure }
func (e RebuildObject) EventClass() Class     { return ClassFailure }
func (e RebuildEnd) EventClass() Class        { return ClassFailure }

// Recorder observes simulation events. Every method takes its event
// struct by value so that implementations — including Nop — involve no
// interface boxing and no allocation on the caller's side. Instrumented
// code holds a Recorder that is nil when telemetry is disabled and
// guards each emission with a single nil-check:
//
//	if c.rec != nil {
//		c.rec.RequestStart(telemetry.RequestStart{...})
//	}
type Recorder interface {
	RequestStart(RequestStart)
	RequestComplete(RequestComplete)
	QueueSample(QueueSample)
	FlashWrite(FlashWrite)
	FlashErase(FlashErase)
	MigrationTrigger(MigrationTrigger)
	MigrationPlan(MigrationPlan)
	ObjectMoveStart(ObjectMoveStart)
	ObjectMoveCommit(ObjectMoveCommit)
	MigrationRoundEnd(MigrationRoundEnd)
	WaitPark(WaitPark)
	WaitResume(WaitResume)
	DeviceFailure(DeviceFailure)
	DeviceRepair(DeviceRepair)
	DeviceSlowdown(DeviceSlowdown)
	RebuildStart(RebuildStart)
	RebuildObject(RebuildObject)
	RebuildEnd(RebuildEnd)
}

// Nop is the no-op Recorder default: every method discards its event.
// It exists for call sites that want a guaranteed non-nil recorder; the
// instrumentation in the simulator prefers a nil Recorder plus a
// nil-check, which is cheaper still.
type Nop struct{}

var _ Recorder = Nop{}

// The no-op recorder drops everything.

func (Nop) RequestStart(RequestStart)           {}
func (Nop) RequestComplete(RequestComplete)     {}
func (Nop) QueueSample(QueueSample)             {}
func (Nop) FlashWrite(FlashWrite)               {}
func (Nop) FlashErase(FlashErase)               {}
func (Nop) MigrationTrigger(MigrationTrigger)   {}
func (Nop) MigrationPlan(MigrationPlan)         {}
func (Nop) ObjectMoveStart(ObjectMoveStart)     {}
func (Nop) ObjectMoveCommit(ObjectMoveCommit)   {}
func (Nop) MigrationRoundEnd(MigrationRoundEnd) {}
func (Nop) WaitPark(WaitPark)                   {}
func (Nop) WaitResume(WaitResume)               {}
func (Nop) DeviceFailure(DeviceFailure)         {}
func (Nop) DeviceRepair(DeviceRepair)           {}
func (Nop) DeviceSlowdown(DeviceSlowdown)       {}
func (Nop) RebuildStart(RebuildStart)           {}
func (Nop) RebuildObject(RebuildObject)         {}
func (Nop) RebuildEnd(RebuildEnd)               {}
