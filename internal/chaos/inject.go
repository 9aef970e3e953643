package chaos

import (
	"fmt"
	"sort"

	"edm/internal/cluster"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

// window is one observed failure interval on a device. end < 0 means
// the device never returned to service.
type window struct {
	osd   int
	group int
	start sim.Time
	end   sim.Time
}

// Injector drives a Plan's device faults into a cluster and observes
// the resulting failure timeline. It decorates the telemetry stream —
// install it as the cluster's Recorder with the next stage (usually a
// check.Checker) as inner — so migration-armed faults see rounds the
// moment they start and the failure windows used by the fault-aware
// invariants come from the run itself, not the plan.
type Injector struct {
	telemetry.Recorder // inner stage; every unobserved event forwards

	cl        *cluster.Cluster
	armed     []Fault // migration-fail faults not yet fired
	planCount int     // MigrationPlan events seen
	windows   []window

	// moved maps each object that a committed move or rebuild placed
	// elsewhere to its current OSD; every other object sits at its
	// placement home.
	moved map[int64]int
	// stripeLost records that a data operation started while failed
	// devices held two columns of its stripe: the one state in which
	// RAID-5 cannot serve it.
	stripeLost bool
}

// NewInjector builds an injector holding the plan's device faults.
// inner may be nil (events are then dropped after observation).
func NewInjector(inner telemetry.Recorder, p Plan) *Injector {
	if inner == nil {
		inner = telemetry.Nop{}
	}
	return &Injector{
		Recorder: inner,
		armed:    filterKind(p.DeviceFaults(), FaultMigrationFail),
		moved:    make(map[int64]int),
	}
}

func filterKind(fs []Fault, k FaultKind) []Fault {
	var out []Fault
	for _, f := range fs {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// Arm binds the injector to a built cluster and schedules the plan's
// timed faults. Call it between cluster construction and Run. The
// plan must have been validated against the cluster's OSD count.
func (in *Injector) Arm(cl *cluster.Cluster, p Plan) {
	in.cl = cl
	for _, f := range p.DeviceFaults() {
		switch f.Kind {
		case FaultFail:
			cl.FailOSD(f.OSD, f.At)
		case FaultRepair:
			cl.RepairOSD(f.OSD, f.At)
		case FaultSlow:
			cl.SlowOSD(f.OSD, f.At, f.Duration, f.Factor)
		}
	}
}

// DeviceFailure opens a failure window, then forwards.
func (in *Injector) DeviceFailure(ev telemetry.DeviceFailure) {
	group := -1
	if in.cl != nil {
		group = in.cl.Layout().GroupOf(ev.OSD)
	}
	in.windows = append(in.windows, window{osd: ev.OSD, group: group, start: ev.T, end: -1})
	in.Recorder.DeviceFailure(ev)
}

// DeviceRepair closes the device's open failure window, then forwards.
func (in *Injector) DeviceRepair(ev telemetry.DeviceRepair) {
	for i := len(in.windows) - 1; i >= 0; i-- {
		if in.windows[i].osd == ev.OSD && in.windows[i].end < 0 {
			in.windows[i].end = ev.T
			break
		}
	}
	in.Recorder.DeviceRepair(ev)
}

// ObjectMoveCommit notes the object's new device, then forwards.
func (in *Injector) ObjectMoveCommit(ev telemetry.ObjectMoveCommit) {
	in.moved[ev.Obj] = ev.Dst
	in.Recorder.ObjectMoveCommit(ev)
}

// RebuildObject notes the rebuilt object's new device, then forwards.
func (in *Injector) RebuildObject(ev telemetry.RebuildObject) {
	in.moved[ev.Obj] = ev.To
	in.Recorder.RebuildObject(ev)
}

// RequestStart checks, while a device is failed, whether the failed
// devices hold two columns of a data operation's stripe, then forwards.
func (in *Injector) RequestStart(ev telemetry.RequestStart) {
	if !in.stripeLost && in.cl != nil && len(in.windows) > 0 && (ev.Op == "read" || ev.Op == "write") {
		in.stripeLost = in.failedColumns(ev.File) >= 2
	}
	in.Recorder.RequestStart(ev)
}

// failedColumns counts the columns of file's stripe that sit on a
// currently failed device.
func (in *Injector) failedColumns(file int64) int {
	lay := in.cl.Layout()
	n := 0
	for j := 0; j < lay.K; j++ {
		osd, ok := in.moved[file*int64(lay.K)+int64(j)]
		if !ok {
			osd = lay.HomeOf(file, j)
		}
		for _, w := range in.windows {
			if w.osd == osd && w.end < 0 {
				n++
				break
			}
		}
	}
	return n
}

// MigrationPlan fires armed migration-window faults: a fault whose
// round matches schedules its device failure After after the round
// starts (killing the OSD mid-round), then is disarmed.
func (in *Injector) MigrationPlan(ev telemetry.MigrationPlan) {
	round := in.planCount
	in.planCount++
	if in.cl != nil {
		kept := in.armed[:0]
		for _, f := range in.armed {
			if f.Nth == round {
				in.cl.FailOSD(f.OSD, ev.T+f.After)
				continue
			}
			kept = append(kept, f)
		}
		in.armed = kept
	}
	in.Recorder.MigrationPlan(ev)
}

// Violations evaluates the fault-aware invariants against the run's
// outcome and returns one string per violation, sorted:
//
//   - chaos.lost: operations may be lost only under a double failure
//     in distinct placement groups (§III.D: no stripe has two objects
//     in one group, so any single group's failures cost at most one
//     column per stripe), or once a data operation started while the
//     failed devices held two columns of its stripe. The second case
//     covers CMT, whose cross-group moves can put two columns of a
//     stripe on one device; where dispersion holds it implies the
//     first.
//   - chaos.degraded: degraded-mode service requires a failure window
//     to exist at all.
//
// Exactly-once residency across fail → rebuild → repair and
// "degraded reads touch only survivors" are enforced separately by
// cluster.Audit and the checker's failure.service rule, which the
// scenario runner merges into the same verdict.
func (in *Injector) Violations(res *cluster.Result) []string {
	var out []string
	if res.LostOps > 0 && !in.crossGroupOverlap() && !in.stripeLost {
		out = append(out, fmt.Sprintf(
			"chaos.lost: %d operations lost without overlapping failures in distinct groups or two failed columns of one stripe",
			res.LostOps))
	}
	if res.DegradedOps > 0 && len(in.windows) == 0 {
		out = append(out, fmt.Sprintf(
			"chaos.degraded: %d degraded operations without any device failure", res.DegradedOps))
	}
	sort.Strings(out)
	return out
}

// crossGroupOverlap reports whether any two failure windows in
// distinct groups overlapped in time (open windows extend forever).
func (in *Injector) crossGroupOverlap() bool {
	for i, a := range in.windows {
		for _, b := range in.windows[i+1:] {
			if a.group == b.group && a.group >= 0 {
				continue
			}
			if overlaps(a, b) {
				return true
			}
		}
	}
	return false
}

func overlaps(a, b window) bool {
	aEnd, bEnd := a.end, b.end
	if aEnd < 0 {
		aEnd = sim.Time(1<<63 - 1)
	}
	if bEnd < 0 {
		bEnd = sim.Time(1<<63 - 1)
	}
	return a.start < bEnd && b.start < aEnd
}

// Windows returns the observed failure windows (for tests).
func (in *Injector) Windows() int { return len(in.windows) }
