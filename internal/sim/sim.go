// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in schedule order (FIFO),
// which makes every simulation a pure function of its inputs: running the
// same model twice yields identical event orderings and therefore
// identical results. All EDM experiments are built on this property.
//
// The queue is a radix queue, which fits because nothing is ever
// scheduled before the clock: bucket 0 holds the events at the last
// time taken, and bucket b > 0 those whose time first differs from it in
// bit b−1. A step takes the front of bucket 0; when bucket 0 is empty,
// the lowest non-empty bucket's earliest time becomes the last time
// taken and its events move down, in order, to the buckets that time
// assigns them. An event moves down at most 63 times, so a step costs
// O(1) amortized. Each bucket is a list threaded through the event
// slots and appended in schedule order, and the events of one instant
// always share a bucket, so events leave in exactly (at, seq) order.
//
// Slots live in a value slice with a free list, so steady-state
// scheduling (At/After/Step) performs no heap allocations: fired and
// cancelled events return their slots for reuse. Handles are
// generation-checked slot indices, and Cancel unlinks its event from
// its bucket in O(1), so cancelled events never linger (Pending is exact
// and a Stop-heavy run cannot bloat the queue).
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of
// the simulation. It is deliberately distinct from time.Time: simulated
// clusters have no relation to the wall clock.
type Time int64

// Common virtual durations, mirroring time package constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Duration converts a time.Duration into a virtual duration.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled to run at a virtual instant.
type Event func(now Time)

// Action is a pre-bound event: a value whose Fire method runs at the
// scheduled instant. Scheduling an Action instead of an Event avoids the
// closure allocation a captured-variable callback costs at hot call
// sites — storing an interface built from an existing pointer allocates
// nothing.
type Action interface {
	Fire(now Time)
}

// slot holds one scheduled event. Slots live in a value slice and are
// recycled through a free list; a pending slot is linked into its
// bucket's list and gen invalidates stale handles.
type slot struct {
	at Time
	// Neighbours in the bucket's list, kept beside at because moving an
	// event reads all three. The head's prev and the tail's next are
	// stale and never read.
	prev, next int32
	seq        uint64 // tiebreaker: FIFO among same-time events
	gen        uint32
	fn         Event // while pending exactly one of fn/act is set; both nil when free
	act        Action
}

func (s *slot) pending() bool { return s.fn != nil || s.act != nil }

// list is one bucket: the first and last slot of its list, and a lower
// bound on its times (exact unless its earliest event was cancelled),
// valid while the bucket's mask bit is set.
type list struct {
	head, tail int32
	min        Time
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to no event.
type Handle struct {
	e   *Engine
	id  int32
	gen uint32
}

// Cancel removes the event from the queue immediately. Cancelling an
// already-fired or already-cancelled event is a no-op. It reports
// whether the event was still pending.
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	s := &h.e.slots[h.id]
	if s.gen != h.gen || !s.pending() {
		return false
	}
	h.e.unlink(h.id)
	h.e.recycle(h.id)
	return true
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; parallelism in the EDM harness happens across
// independent Engine instances, never within one.
type Engine struct {
	now Time
	// last is the queue's reference time: no pending event is earlier,
	// and bucket b holds the events whose time first differs from it in
	// bit b−1 (bucket 0: at last). Times are never negative, so 64
	// buckets cover them; bit b of mask is set when bucket b is not empty.
	last    Time
	mask    uint64
	slots   []slot
	free    []int32 // recycled slot ids (LIFO)
	seq     uint64
	fired   uint64
	running bool

	// Checkpoint and sampler hooks (SetCheckpoint, SetSampler), nil when
	// off, so the no-hook run loops stay branch-free.
	ck  *checkpoint
	smp *sampler

	lists [64]list
}

// checkpoint is an armed SetCheckpoint hook: fn runs whenever the fired
// count reaches a multiple of every or of poll, and left counts the
// events still to fire before the next such position.
type checkpoint struct {
	every, poll, left uint64
	fn                func(now Time) error
}

// gap is the number of events from fired to the hook's next position.
func (c *checkpoint) gap(fired uint64) uint64 {
	g := c.every - fired%c.every
	if c.poll != 0 {
		g = min(g, c.poll-fired%c.poll)
	}
	return g
}

// sampler is an armed SetSampler hook: fn(next) is the next to run.
type sampler struct {
	every, next Time
	fn          func(at Time)
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{} }

// Reset empties the engine for reuse: it is as New returns it, but
// keeps its slot storage, and its pending events' callbacks are
// dropped. Handles from before must not be used after.
func (e *Engine) Reset() {
	clear(e.slots)
	*e = Engine{slots: e.slots[:0], free: e.free[:0]}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return len(e.slots) - len(e.free) }

// Seq returns the next schedule sequence number — together with Now and
// Fired it pins the engine's replay position for state capture.
func (e *Engine) Seq() uint64 { return e.seq }

// QueueEntry is the exportable shape of one pending event: its firing
// instant and FIFO sequence number. The callback itself is deliberately
// absent — closures and pooled Actions are not serializable, which is
// why checkpoint restore replays rather than deserializes (see
// internal/snapshot).
type QueueEntry struct {
	At  Time
	Seq uint64
}

// AppendQueue appends every pending event's (at, seq) pair to dst in
// deterministic (at, seq) order and returns the extended slice. It is
// read-only: the queue is not disturbed, so capturing the queue cannot
// perturb the run being captured.
func (e *Engine) AppendQueue(dst []QueueEntry) []QueueEntry {
	base := len(dst)
	for i := range e.slots {
		if s := &e.slots[i]; s.pending() {
			dst = append(dst, QueueEntry{At: s.at, Seq: s.seq})
		}
	}
	slices.SortFunc(dst[base:], func(a, b QueueEntry) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return dst
}

// Fork copies an engine paused between events into dst (a new engine
// when dst is nil, else overwritten as by Reset, keeping its slot
// storage) and returns it: the same clock, fired count, sequence
// counter and queue, slot for slot, with every pending action replaced
// by remap(action), so the copy fires the same events in the same order
// against the caller's copies of the actions' state. The original is
// only read. Fork refuses an engine that is running, has a checkpoint
// or sampler hook armed (observers of the original are not the copy's),
// or holds a pending closure, which cannot be re-bound; it also fails
// if remap returns nil, and then leaves dst reset. The original's
// handles do not refer to the copy.
func (e *Engine) Fork(dst *Engine, remap func(Action) Action) (*Engine, error) {
	switch {
	case e.running:
		return nil, errors.New("sim: fork of a running engine")
	case e.ck != nil || e.smp != nil:
		return nil, errors.New("sim: fork of an engine with a hook armed")
	}
	if dst == nil {
		dst = New()
	}
	dst.Reset()
	slots, free := append(dst.slots, e.slots...), append(dst.free, e.free...)
	*dst = *e
	dst.slots, dst.free = slots, free
	for i := range dst.slots {
		s := &dst.slots[i]
		if !s.pending() {
			continue
		}
		var err error
		if s.fn != nil {
			err = fmt.Errorf("sim: pending event at %v (seq %d) is a closure, which a fork cannot re-bind", s.at, s.seq)
		} else if s.act = remap(s.act); s.act == nil {
			err = fmt.Errorf("sim: pending %T at %v (seq %d) has no copy", e.slots[i].act, s.at, s.seq)
		}
		if err != nil {
			dst.Reset()
			return nil, err
		}
	}
	return dst, nil
}

// SetCheckpoint installs fn to run between events whenever the fired
// count reaches a multiple of every, and also of poll when poll is
// non-zero (a demand trigger's poll interval, which needs no common
// divisor with every). The run loop counts down to the next such
// position, so a hooked event costs a decrement, whatever the two
// intervals. The hook is honoured by RunContext and RunContextFired; a
// hook error stops the run and is returned wrapped. every == 0 or
// fn == nil removes the hook. The hook must not mutate simulation state
// — it exists for state capture.
func (e *Engine) SetCheckpoint(every, poll uint64, fn func(now Time) error) {
	e.ck = nil
	if every != 0 && fn != nil {
		e.ck = &checkpoint{every: every, poll: poll, fn: fn}
	}
}

// SetSampler installs fn to run between events, once for each instant
// t = now + k·every (k ≥ 1), before the first event at or after t. It
// takes no queue slot, sequence number or fired count, so a sampled
// run's schedule and state captures equal an unsampled one's. Like
// SetCheckpoint it is honoured by RunContext and RunContextFired, and
// fn must not mutate simulation state. every <= 0 or fn == nil removes
// the hook.
func (e *Engine) SetSampler(every Time, fn func(at Time)) {
	e.smp = nil
	if every > 0 && fn != nil {
		e.smp = &sampler{every: every, next: e.now + every, fn: fn}
	}
}

// sample runs the sampler for each instant up to the next event's time,
// which settle brings to the front of bucket 0 (and the last time taken
// past now, until that event fires).
func (e *Engine) sample() {
	for e.smp != nil && e.mask != 0 {
		if e.mask&1 == 0 {
			e.settle()
		}
		if e.smp.next > e.last {
			return
		}
		t := e.smp.next
		e.smp.next += e.smp.every
		e.smp.fn(t)
	}
}

// alloc reserves a slot for an event at the given instant and appends it
// to its bucket.
func (e *Engine) alloc(at Time) int32 {
	if at < e.last {
		if at < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
		}
		e.rebase()
	}
	if e.mask == 0 {
		e.last = at // a lone event goes straight to bucket 0
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at = at
	s.seq = e.seq
	e.seq++
	e.push(id)
	return id
}

// push appends a slot to the bucket its time falls in.
func (e *Engine) push(id int32) {
	s := &e.slots[id]
	b := bits.Len64(uint64(s.at ^ e.last))
	l := &e.lists[b]
	if e.mask&(1<<b) == 0 {
		e.mask |= 1 << b
		l.head, l.min = id, s.at
	} else {
		e.slots[l.tail].next = id
		s.prev = l.tail
		l.min = min(l.min, s.at)
	}
	l.tail = id
}

// unlink removes a pending slot from its bucket.
func (e *Engine) unlink(id int32) {
	s := &e.slots[id]
	b := bits.Len64(uint64(s.at ^ e.last))
	l := &e.lists[b]
	switch {
	case l.head == id && l.tail == id:
		e.mask &^= 1 << b
	case l.head == id:
		l.head = s.next
	case l.tail == id:
		l.tail = s.prev
	default:
		e.slots[s.prev].next = s.next
		e.slots[s.next].prev = s.prev
	}
}

// recycle returns a slot to the free list; its generation advances so
// stale handles miss.
func (e *Engine) recycle(id int32) {
	s := &e.slots[id]
	s.gen++
	s.fn, s.act = nil, nil
	e.free = append(e.free, id)
}

// settle refills an empty bucket 0 from the lowest non-empty bucket: its
// earliest time becomes the last time taken, and its events move, in
// order, to the lower buckets that time assigns them, bucket 0 among
// them. No other event changes bucket. After a cancel a bucket's bound
// may lie below its earliest time; then its events all land in buckets
// above 0 but below its own, and the loop goes on. The queue must not be
// empty.
func (e *Engine) settle() {
	for e.mask&1 == 0 {
		b := bits.TrailingZeros64(e.mask)
		l := e.lists[b]
		e.mask &^= 1 << b
		e.last = l.min
		e.rebucket(l)
	}
}

// rebase lowers the last time taken to now and re-buckets every event
// against it. It runs when an event is scheduled below the last time
// taken, which a lone event (scheduled into an empty queue) or a
// sampler's look at the next event can leave past now.
func (e *Engine) rebase() {
	lists, mask := e.lists, e.mask
	e.last, e.mask = e.now, 0
	for ; mask != 0; mask &= mask - 1 {
		e.rebucket(lists[bits.TrailingZeros64(mask)])
	}
}

// rebucket pushes the events of a detached list, in order.
func (e *Engine) rebucket(l list) {
	for id := l.head; ; {
		next := e.slots[id].next
		e.push(id)
		if id == l.tail {
			return
		}
		id = next
	}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
func (e *Engine) At(at Time, fn Event) Handle {
	if fn == nil {
		panic("sim: nil event")
	}
	id := e.alloc(at)
	s := &e.slots[id]
	s.fn = fn
	return Handle{e: e, id: id, gen: s.gen}
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// AtAction schedules a.Fire to run at the absolute virtual time at,
// without the closure allocation of At.
func (e *Engine) AtAction(at Time, a Action) Handle {
	if a == nil {
		panic("sim: nil action")
	}
	id := e.alloc(at)
	s := &e.slots[id]
	s.act = a
	return Handle{e: e, id: id, gen: s.gen}
}

// AfterAction schedules a.Fire to run delay after the current time.
func (e *Engine) AfterAction(delay Time, a Action) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtAction(e.now+delay, a)
}

// Every schedules fn at now+period, then repeatedly every period until
// the returned handle's Cancel is called or the run ends. fn observes the
// firing time.
func (e *Engine) Every(period Time, fn Event) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.AfterAction(period, t)
	return t
}

// Ticker repeatedly schedules an event with a fixed period. The Ticker
// itself is the scheduled Action, so ticking allocates nothing after the
// initial Every call.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      Event
	handle  Handle
	stopped bool
}

// Fire implements Action: run the callback, then re-arm unless Stop was
// called (possibly from inside the callback itself).
func (t *Ticker) Fire(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.handle = t.engine.AfterAction(t.period, t)
	}
}

// Stop cancels future firings. Safe to call multiple times, including
// from inside the ticker's own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.mask&1 == 0 {
		if e.mask == 0 {
			return false
		}
		e.settle()
	}
	l := &e.lists[0]
	id := l.head
	if id == l.tail {
		e.mask &^= 1
	} else {
		l.head = e.slots[id].next
	}
	s := &e.slots[id]
	fn, act := s.fn, s.act
	e.recycle(id)
	at := e.last
	e.now = at
	e.fired++
	if act != nil {
		act.Fire(at)
	} else {
		fn(at)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	e.guard()
	defer func() { e.running = false }()
	for e.Step() {
	}
}

func (e *Engine) guard() {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
}
