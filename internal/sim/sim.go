// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in schedule order (FIFO),
// which makes every simulation a pure function of its inputs: running the
// same model twice yields identical event orderings and therefore
// identical results. All EDM experiments are built on this property.
//
// The queue is an index-based 4-ary min-heap over a value slice of event
// slots with a free list, so steady-state scheduling (At/After/Step)
// performs no heap allocations: fired and cancelled events return their
// slots for reuse. Handles are generation-checked slot indices, and
// Cancel removes its event from the queue eagerly, so cancelled events
// never linger (Pending is exact and a Stop-heavy run cannot bloat the
// queue).
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
// recycled through a free list; pos tracks the slot's position in the
// heap (freeSlot when idle) and gen invalidates stale handles.
type slot struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among same-time events
	fn  Event  // exactly one of fn/act is set
	act Action
	gen uint32
	pos int32
}

// freeSlot marks a slot that is not in the heap (fired, cancelled, or
// never used).
const freeSlot = int32(-1)

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
	if s.pos == freeSlot || s.gen != h.gen {
		return false
	}
	h.e.removeAt(s.pos)
	return true
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; parallelism in the EDM harness happens across
// independent Engine instances, never within one.
type Engine struct {
	now     Time
	slots   []slot
	heap    []int32 // slot ids ordered as a 4-ary min-heap on (at, seq)
	free    []int32 // recycled slot ids (LIFO)
	seq     uint64
	fired   uint64
	running bool

	// Checkpoint and sampler hooks (SetCheckpoint, SetSampler), nil when
	// off, so the no-hook run loops stay branch-free; pointers, so an
	// engine keeps its allocation size class.
	ck  *checkpoint
	smp *sampler
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

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return len(e.heap) }

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
// read-only: the heap is not disturbed, so capturing the queue cannot
// perturb the run being captured.
func (e *Engine) AppendQueue(dst []QueueEntry) []QueueEntry {
	base := len(dst)
	for _, id := range e.heap {
		s := &e.slots[id]
		dst = append(dst, QueueEntry{At: s.at, Seq: s.seq})
	}
	tail := dst[base:]
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].At != tail[j].At {
			return tail[i].At < tail[j].At
		}
		return tail[i].Seq < tail[j].Seq
	})
	return dst
}

// Fork returns a copy of an engine paused between events: the same
// clock, fired count, sequence counter and queue, slot for slot, with
// every pending action replaced by remap(action), so the copy fires the
// same events in the same order against the caller's copies of the
// actions' state. The original is only read. Fork refuses an engine
// that is running, has a checkpoint or sampler hook armed (observers of
// the original are not the copy's), or holds a pending closure, which
// cannot be re-bound; it also fails if remap returns nil. Handles
// issued by the original do not refer to the copy.
func (e *Engine) Fork(remap func(Action) Action) (*Engine, error) {
	switch {
	case e.running:
		return nil, errors.New("sim: fork of a running engine")
	case e.ck != nil || e.smp != nil:
		return nil, errors.New("sim: fork of an engine with a hook armed")
	}
	f := &Engine{
		now:   e.now,
		slots: slices.Clone(e.slots),
		heap:  slices.Clone(e.heap),
		free:  slices.Clone(e.free),
		seq:   e.seq,
		fired: e.fired,
	}
	for _, id := range f.heap {
		s := &f.slots[id]
		if s.fn != nil {
			return nil, fmt.Errorf("sim: pending event at %v (seq %d) is a closure, which a fork cannot re-bind", s.at, s.seq)
		}
		act := remap(s.act)
		if act == nil {
			return nil, fmt.Errorf("sim: pending %T at %v (seq %d) has no copy", s.act, s.at, s.seq)
		}
		s.act = act
	}
	return f, nil
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

// sample runs the sampler for each instant up to the next event's time.
func (e *Engine) sample() {
	for e.smp != nil && len(e.heap) > 0 && e.smp.next <= e.slots[e.heap[0]].at {
		t := e.smp.next
		e.smp.next += e.smp.every
		e.smp.fn(t)
	}
}

// alloc reserves a slot for an event at the given instant and links it
// into the heap.
func (e *Engine) alloc(at Time) int32 {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{pos: freeSlot})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at = at
	s.seq = e.seq
	e.seq++
	s.pos = int32(len(e.heap))
	e.heap = append(e.heap, id)
	e.siftUp(int(s.pos))
	return id
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
	if len(e.heap) == 0 {
		return false
	}
	s := &e.slots[e.heap[0]]
	at := s.at
	fn := s.fn
	act := s.act
	e.removeAt(0)
	e.now = at
	e.fired++
	if act != nil {
		act.Fire(at)
	} else {
		fn(at)
	}
	return true
}

// removeAt unlinks the event at heap position pos and recycles its slot.
// The slot's generation advances so stale handles miss.
func (e *Engine) removeAt(pos int32) {
	id := e.heap[pos]
	last := int32(len(e.heap) - 1)
	moved := e.heap[last]
	e.heap[pos] = moved
	e.slots[moved].pos = pos
	e.heap = e.heap[:last]
	if pos < last {
		e.siftDown(int(pos))
		e.siftUp(int(e.slots[moved].pos))
	}
	s := &e.slots[id]
	s.pos = freeSlot
	s.gen++
	s.fn = nil
	s.act = nil
	e.free = append(e.free, id)
}

// less orders heap entries by (at, seq): earliest first, FIFO among
// same-time events — the determinism tiebreak.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// siftUp restores heap order from position i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		e.slots[h[i]].pos = int32(i)
		e.slots[h[parent]].pos = int32(parent)
		i = parent
	}
}

// siftDown restores heap order from position i toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.less(h[c], h[min]) {
				min = c
			}
		}
		if !e.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		e.slots[h[i]].pos = int32(i)
		e.slots[h[min]].pos = int32(min)
		i = min
	}
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
