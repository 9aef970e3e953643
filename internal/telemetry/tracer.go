package telemetry

// Tracer is the standard Recorder: it buffers events in emission order,
// filtered by an event-class mask. Emission order on the single-threaded
// DES is deterministic, so a Tracer's event log — and every export of it
// — is a pure function of (spec, seed).
//
// A Tracer belongs to one simulation run and, like the engine it
// observes, is not safe for concurrent use.
type Tracer struct {
	mask   Class
	events []Event
}

var _ Recorder = (*Tracer)(nil)

// NewTracer returns a tracer recording the given event classes
// (ClassAll for everything).
func NewTracer(mask Class) *Tracer {
	if mask == 0 {
		mask = ClassAll
	}
	return &Tracer{mask: mask}
}

// Events returns the recorded events in emission order. The slice is
// owned by the tracer; callers must not mutate it.
func (tr *Tracer) Events() []Event { return tr.events }

// Len returns the number of recorded events.
func (tr *Tracer) Len() int { return len(tr.events) }

// CountKind returns how many recorded events have the given kind.
func (tr *Tracer) CountKind(kind string) int {
	n := 0
	for _, ev := range tr.events {
		if ev.Kind() == kind {
			n++
		}
	}
	return n
}

func (tr *Tracer) record(c Class, ev Event) {
	if tr.mask&c != 0 {
		tr.events = append(tr.events, ev)
	}
}

// Recorder implementation: each typed method boxes the event once (only
// when its class is enabled) and appends it.

func (tr *Tracer) RequestStart(ev RequestStart)           { tr.record(ClassRequest, ev) }
func (tr *Tracer) RequestComplete(ev RequestComplete)     { tr.record(ClassRequest, ev) }
func (tr *Tracer) QueueSample(ev QueueSample)             { tr.record(ClassQueue, ev) }
func (tr *Tracer) FlashWrite(ev FlashWrite)               { tr.record(ClassFlash, ev) }
func (tr *Tracer) FlashErase(ev FlashErase)               { tr.record(ClassFlash, ev) }
func (tr *Tracer) MigrationTrigger(ev MigrationTrigger)   { tr.record(ClassMigration, ev) }
func (tr *Tracer) MigrationPlan(ev MigrationPlan)         { tr.record(ClassMigration, ev) }
func (tr *Tracer) ObjectMoveStart(ev ObjectMoveStart)     { tr.record(ClassMigration, ev) }
func (tr *Tracer) ObjectMoveCommit(ev ObjectMoveCommit)   { tr.record(ClassMigration, ev) }
func (tr *Tracer) MigrationRoundEnd(ev MigrationRoundEnd) { tr.record(ClassMigration, ev) }
func (tr *Tracer) WaitPark(ev WaitPark)                   { tr.record(ClassWait, ev) }
func (tr *Tracer) WaitResume(ev WaitResume)               { tr.record(ClassWait, ev) }
func (tr *Tracer) DeviceFailure(ev DeviceFailure)         { tr.record(ClassFailure, ev) }
func (tr *Tracer) DeviceRepair(ev DeviceRepair)           { tr.record(ClassFailure, ev) }
func (tr *Tracer) DeviceSlowdown(ev DeviceSlowdown)       { tr.record(ClassFailure, ev) }
func (tr *Tracer) RebuildStart(ev RebuildStart)           { tr.record(ClassFailure, ev) }
func (tr *Tracer) RebuildObject(ev RebuildObject)         { tr.record(ClassFailure, ev) }
func (tr *Tracer) RebuildEnd(ev RebuildEnd)               { tr.record(ClassFailure, ev) }
