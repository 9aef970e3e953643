package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The engine is checked against refEngine, a sorted-slice model of its
// contract: events leave in (at, seq) order, Cancel removes a pending
// event and misses any other, the sampler runs once per instant before
// the first event at or after it, and a fork continues exactly as its
// original would. Both are driven by one operation stream decoded from
// bytes, so the randomized test and the fuzz target share one decoder.
// An event is named by its seq, which both sides hand out alike.

// refEvent is one pending event of the model.
type refEvent struct {
	at      Time
	seq     uint64
	closure bool
}

func cmpRef(a, b refEvent) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) }

// refEngine is the model: a pending list kept sorted by (at, seq), and
// the log of what fired and what the sampler saw.
type refEngine struct {
	now             Time
	fired, seq      uint64
	queue           []refEvent
	smpEvery, smpAt Time // sampler period (0: off) and next instant
	smpLeft         int  // samples until the sampler removes itself
	log             []string
}

func (r *refEngine) schedule(at Time, closure bool) {
	ev := refEvent{at: at, seq: r.seq, closure: closure}
	r.seq++
	i, _ := slices.BinarySearchFunc(r.queue, ev, cmpRef)
	r.queue = slices.Insert(r.queue, i, ev)
}

func (r *refEngine) cancel(seq uint64) bool {
	i := slices.IndexFunc(r.queue, func(ev refEvent) bool { return ev.seq == seq })
	if i >= 0 {
		r.queue = slices.Delete(r.queue, i, i+1)
	}
	return i >= 0
}

func (r *refEngine) closures() bool {
	return slices.ContainsFunc(r.queue, func(ev refEvent) bool { return ev.closure })
}

// step fires the earliest event. An action schedules its children, as
// actions; a closure schedules none.
func (r *refEngine) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.now = ev.at
	r.fired++
	r.log = append(r.log, fireLine(ev.at, ev.seq))
	if !ev.closure {
		for _, d := range childDelays(ev.seq) {
			r.schedule(r.now+d, false)
		}
	}
	return true
}

// run is the model of RunContext (target 0) and RunContextFired.
func (r *refEngine) run(target uint64) error {
	for target == 0 || r.fired < target {
		for r.smpEvery > 0 && len(r.queue) > 0 && r.smpAt <= r.queue[0].at {
			r.log = append(r.log, sampleLine(r.smpAt, r.now, r.fired, r.entries()))
			r.smpAt += r.smpEvery
			if r.smpLeft--; r.smpLeft == 0 {
				r.smpEvery = 0
			}
		}
		if !r.step() {
			if target != 0 {
				return fmt.Errorf("drained at %d, short of %d", r.fired, target)
			}
			return nil
		}
	}
	return nil
}

func (r *refEngine) entries() []QueueEntry {
	q := make([]QueueEntry, len(r.queue))
	for i, ev := range r.queue {
		q[i] = QueueEntry{At: ev.at, Seq: ev.seq}
	}
	return q
}

func fireLine(at Time, seq uint64) string { return fmt.Sprintf("fire seq %d @%d", seq, at) }

func sampleLine(at, now Time, fired uint64, q []QueueEntry) string {
	return fmt.Sprintf("sample @%d now %d fired %d queue %v", at, now, fired, q)
}

// childDelays is the fan-out both sides share: an event's children
// depend only on its seq, with bursts at one instant, small and large
// steps and steps of 2^40, and die out because seqs only grow.
func childDelays(seq uint64) []Time {
	h := seq*0x9e3779b97f4a7c15 + 7
	if seq%5 == 4 {
		return nil
	}
	d := make([]Time, h>>62%3)
	for j := range d {
		switch (h >> (8 * j)) % 5 {
		case 0:
			d[j] = 0
		case 1:
			d[j] = Time(h>>20) % 7
		case 2:
			d[j] = Time(h>>24) % 100000
		case 3:
			d[j] = 1 << 40
		default:
			d[j] = Time(h>>30) % 3
		}
	}
	return d
}

// oracleAct is the engine side of an action event: firing logs it and
// schedules the same children as the model, on the engine it is bound
// to.
type oracleAct struct {
	o   *oracle
	e   *Engine
	seq uint64
}

func (a *oracleAct) Fire(now Time) {
	a.o.log = append(a.o.log, fireLine(now, a.seq))
	for _, d := range childDelays(a.seq) {
		a.e.AtAction(now+d, &oracleAct{o: a.o, e: a.e, seq: a.e.Seq()})
	}
}

// oracle drives an engine and the model through one operation stream.
type oracle struct {
	t       testing.TB
	e       *Engine
	spare   *Engine // a discarded engine, the next fork's target
	ref     refEngine
	log     []string
	checked int // log entries already compared
	handles []oracleHandle
	data    []byte
}

// oracleHandle is a handle the engine returned and the seq of its event.
type oracleHandle struct {
	h   Handle
	seq uint64
}

// next consumes one byte of the stream; an exhausted stream reads 0.
func (o *oracle) next() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *oracle) u16() int { return int(o.next())<<8 | int(o.next()) }

// delay draws a delay: zero (a burst at one instant), small, up to
// 2^16, or 2^40 and beyond, so keys differ in low and high bits alike.
func (o *oracle) delay() Time {
	switch b := o.next(); b % 4 {
	case 0:
		return 0
	case 1:
		return Time(b / 4 % 16)
	case 2:
		return Time(o.u16())
	default:
		return 1<<40 + Time(b/4)
	}
}

// schedule puts one event on both sides, by At, After, AtAction or
// AfterAction. Closures are rare, since a pending closure makes a fork
// fail.
func (o *oracle) schedule(at Time, how byte) {
	seq := o.e.Seq()
	fn := func(now Time) { o.log = append(o.log, fireLine(now, seq)) }
	var h Handle
	switch how % 16 {
	case 0:
		h = o.e.At(at, fn)
	case 1:
		h = o.e.After(at-o.e.Now(), fn)
	case 2, 3:
		h = o.e.AfterAction(at-o.e.Now(), &oracleAct{o: o, e: o.e, seq: seq})
	default:
		h = o.e.AtAction(at, &oracleAct{o: o, e: o.e, seq: seq})
	}
	o.ref.schedule(at, how%16 < 2)
	o.handles = append(o.handles, oracleHandle{h: h, seq: seq})
}

// run decodes and applies operations until the stream ends, comparing
// the two sides after each, then drains both. Long streams are cut,
// and a long queue takes no more events from the stream, so every
// input stays quick.
func (o *oracle) run() {
	ctx := context.Background()
	for i := 0; len(o.data) > 0 && i < 600; i++ {
		op := o.next()
		if op%12 <= 3 && len(o.ref.queue) > 300 {
			op = 5
		}
		switch op % 12 {
		case 0, 1, 2:
			o.schedule(o.e.Now()+o.delay(), op/12+op%12)
		case 3: // a burst at one instant
			at := o.e.Now() + o.delay()
			for n := o.next()%9 + 2; n > 0; n-- {
				o.schedule(at, 2)
			}
		case 4: // cancel a pending, fired or stale handle
			if len(o.handles) > 0 {
				oh := o.handles[o.u16()%len(o.handles)]
				if got, want := oh.h.Cancel(), o.ref.cancel(oh.seq); got != want {
					o.t.Fatalf("op %d: Cancel of seq %d reported %v, model %v", i, oh.seq, got, want)
				}
			}
		case 5:
			if got, want := o.e.Step(), o.ref.step(); got != want {
				o.t.Fatalf("op %d: Step reported %v, model %v", i, got, want)
			}
		case 6, 7: // a paused run
			target := o.e.Fired() + uint64(o.next()%32) + 1
			if got, want := o.e.RunContextFired(ctx, target), o.ref.run(target); (got != nil) != (want != nil) {
				o.t.Fatalf("op %d: RunContextFired(%d) returned %v, model %v", i, target, got, want)
			}
		case 8:
			if o.next()%4 == 0 {
				if err := o.e.RunContext(ctx); err != nil {
					o.t.Fatal(err)
				}
				_ = o.ref.run(0)
			}
		case 9: // arm, re-arm or remove the sampler
			switch every := Time(o.next() % 32); every {
			case 0, 1:
				o.setSampler(0)
			case 31:
				o.setSampler(1 << 39)
			default:
				o.setSampler(every)
			}
		case 10:
			o.fork()
		case 11: // from outside a run, below the next pending event
			if len(o.ref.queue) > 0 {
				if gap := o.ref.queue[0].at - o.e.Now(); gap > 0 {
					o.schedule(o.e.Now()+Time(o.u16())%gap, o.next())
				}
			}
		}
		o.compare(i)
	}
	o.setSampler(0)
	for o.e.Step() {
		o.ref.step()
	}
	o.compare(-1)
}

// setSampler arms the sampler on both sides, or removes it. An armed
// sampler removes itself after a few dozen samples, so a short period
// before an event 2^40 ahead stays cheap.
func (o *oracle) setSampler(every Time) {
	const samples = 40
	o.ref.smpEvery, o.ref.smpAt, o.ref.smpLeft = every, o.ref.now+every, samples
	if every == 0 {
		o.e.SetSampler(0, nil)
		return
	}
	e, left := o.e, samples
	e.SetSampler(every, func(at Time) {
		o.log = append(o.log, sampleLine(at, e.Now(), e.Fired(), e.AppendQueue(nil)))
		if left--; left == 0 {
			e.SetSampler(0, nil)
		}
	})
}

// fork copies the engine into the spare one and checks the copy
// against the original, then goes on with either; the original's
// handles do not refer to the copy.
func (o *oracle) fork() {
	var copies []*oracleAct
	f, err := o.e.Fork(o.spare, func(a Action) Action {
		c := *a.(*oracleAct)
		copies = append(copies, &c)
		return &c
	})
	if refuse := o.ref.smpEvery > 0 || o.ref.closures(); (err != nil) != refuse {
		o.t.Fatalf("Fork returned %v with sampler period %v and closures pending: %v", err, o.ref.smpEvery, o.ref.closures())
	}
	if err != nil {
		return
	}
	for _, c := range copies {
		c.e = f
	}
	if f.Now() != o.e.Now() || f.Fired() != o.e.Fired() || f.Seq() != o.e.Seq() || f.Pending() != o.e.Pending() ||
		!slices.Equal(f.AppendQueue(nil), o.e.AppendQueue(nil)) {
		o.t.Fatal("the fork's clock, counters or queue differ from the original's")
	}
	if o.next()%2 == 0 {
		o.spare = f
		return
	}
	o.spare, o.e, o.handles = o.e, f, o.handles[:0]
}

// compare requires the engine to agree with the model.
func (o *oracle) compare(op int) {
	e, r := o.e, &o.ref
	if e.Now() != r.now || e.Fired() != r.fired || e.Seq() != r.seq || e.Pending() != len(r.queue) {
		o.t.Fatalf("after op %d: engine now %v fired %d seq %d pending %d; model %v %d %d %d",
			op, e.Now(), e.Fired(), e.Seq(), e.Pending(), r.now, r.fired, r.seq, len(r.queue))
	}
	if got, want := e.AppendQueue(nil), r.entries(); !slices.Equal(got, want) {
		o.t.Fatalf("after op %d: queue\n got %v\nwant %v", op, got, want)
	}
	if got, want := o.log[o.checked:], r.log[min(o.checked, len(r.log)):]; !slices.Equal(got, want) {
		o.t.Fatalf("after op %d: from log entry %d\n got %q\nwant %q", op, o.checked, got, want)
	}
	o.checked = len(o.log)
}

func runOracle(t testing.TB, data []byte) {
	o := &oracle{t: t, e: New(), data: data}
	o.run()
}

// TestQueueMatchesSortedReference drives the engine and the model
// through seeded random operation streams.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		data := make([]byte, 1000)
		rand.New(rand.NewSource(seed)).Read(data)
		runOracle(t, data)
	}
}

// FuzzQueue runs the same comparison over arbitrary operation streams.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runOracle(t, data) })
}
