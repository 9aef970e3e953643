package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// rearmAction reschedules itself forever (until the run is interrupted)
// and can trip a context.CancelFunc at a chosen fire count.
type rearmAction struct {
	e        *Engine
	n        int
	cancelAt int
	cancel   context.CancelFunc
}

func (a *rearmAction) Fire(Time) {
	a.n++
	if a.cancel != nil && a.n == a.cancelAt {
		a.cancel()
	}
	a.e.AfterAction(1, a)
}

func TestRunContextDrainsLikeRun(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.After(Time(i), func(Time) { fired++ })
	}
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if fired != 10 || e.Pending() != 0 {
		t.Fatalf("fired %d, pending %d", fired, e.Pending())
	}
}

func TestRunContextPreCancelledFiresNothing(t *testing.T) {
	e := New()
	e.After(1, func(Time) { t.Fatal("event fired under a dead context") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Pending() != 1 {
		t.Fatalf("queue should be left intact, pending %d", e.Pending())
	}
}

func TestRunContextCancelMidRunStopsWithinOneCheckInterval(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	act := &rearmAction{e: e, cancelAt: 10*CancelCheckInterval + 7, cancel: cancel}
	e.AfterAction(1, act)
	err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	over := act.n - act.cancelAt
	if over < 0 || over > CancelCheckInterval {
		t.Fatalf("engine fired %d events after cancellation (check interval %d)", over, CancelCheckInterval)
	}
	if e.Pending() != 1 {
		t.Fatalf("interrupted queue should keep the pending event, got %d", e.Pending())
	}
}

func TestRunContextResumesAfterInterrupt(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	act := &rearmAction{e: e, cancelAt: CancelCheckInterval, cancel: cancel}
	e.AfterAction(1, act)
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: %v", err)
	}
	// The interrupted engine keeps its queue: stepping it manually
	// continues exactly where the cancelled run stopped.
	interrupted := act.n
	for i := 0; i < 5; i++ {
		if !e.Step() {
			t.Fatal("queue drained unexpectedly")
		}
	}
	if act.n != interrupted+5 {
		t.Fatalf("resume fired %d events, want 5", act.n-interrupted)
	}
}

func TestRunContextReentrantPanics(t *testing.T) {
	e := New()
	e.After(1, func(Time) {
		defer func() {
			if recover() == nil {
				t.Fatal("re-entrant RunContext should panic")
			}
		}()
		_ = e.RunContext(context.Background())
	})
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The cancellation poll must not allocate: the engine cycle is pinned at
// zero allocations and RunContext sits directly on top of it.
func TestRunContextSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	act := &countAction{}
	e.AfterAction(1, act)
	if err := e.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			e.AfterAction(1, act)
		}
		if err := e.RunContext(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunContext steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// The sampler runs between events, once per instant and before the
// first event at or after it, and leaves the schedule as it found it:
// no queue slot, no sequence number, no fired count.
func TestSamplerRunsBetweenEvents(t *testing.T) {
	schedule := func(e *Engine, log *[]string) {
		for _, at := range []Time{5, 10, 10, 11, 47} {
			e.At(at, func(now Time) { *log = append(*log, fmt.Sprintf("event@%d", now)) })
		}
	}
	var plain []string
	ref := New()
	schedule(ref, &plain)
	if err := ref.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	var log []string
	e := New()
	schedule(e, &log)
	e.SetSampler(10, func(at Time) {
		log = append(log, fmt.Sprintf("sample@%d(now %d, fired %d, pending %d)", at, e.Now(), e.Fired(), e.Pending()))
	})
	// Fire in two legs, like a resume's fast-forward and continuation:
	// the boundary must neither repeat nor skip a sample.
	if err := e.RunContextFired(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"event@5",
		"sample@10(now 5, fired 1, pending 4)",
		"event@10", "event@10", "event@11",
		"sample@20(now 11, fired 4, pending 1)",
		"sample@30(now 11, fired 4, pending 1)",
		"sample@40(now 11, fired 4, pending 1)",
		"event@47",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log\n got %v\nwant %v", log, want)
	}
	if e.Fired() != ref.Fired() || e.Seq() != ref.Seq() || e.Now() != ref.Now() {
		t.Fatalf("sampled engine ends at fired %d seq %d now %v, unsampled at %d %d %v",
			e.Fired(), e.Seq(), e.Now(), ref.Fired(), ref.Seq(), ref.Now())
	}
}

// A sampler removed from inside an event stops before the next
// instant; an armed sampler does not keep a drained queue alive.
func TestSamplerStops(t *testing.T) {
	e := New()
	var samples []Time
	e.SetSampler(3, func(at Time) { samples = append(samples, at) })
	e.At(7, func(Time) { e.SetSampler(0, nil) })
	e.At(20, func(Time) {})
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(samples) != "[3ns 6ns]" || e.Now() != 20 {
		t.Fatalf("samples %v, now %v; want [3ns 6ns] and 20ns", samples, e.Now())
	}

	e = New()
	e.SetSampler(3, func(at Time) { t.Fatalf("sampled %v with nothing scheduled", at) })
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleBelowLastTaken schedules events below the queue's last
// time taken, from outside a run. A lone event, scheduled into an empty
// queue, sets that time to its own, so the events scheduled after it
// may land below it: on a fresh engine, and on a sampled one paused by
// RunContextFired. Both must fire in (at, seq) order, with the samples
// in between.
func TestScheduleBelowLastTaken(t *testing.T) {
	var log []string
	at := func(e *Engine, when Time, name string) {
		e.At(when, func(now Time) { log = append(log, fmt.Sprintf("%s@%d", name, now)) })
	}

	e := New()
	at(e, 100, "lone")
	at(e, 50, "a")
	at(e, 75, "b")
	at(e, 50, "c")
	e.Run()
	if want := "[a@50 c@50 b@75 lone@100]"; fmt.Sprint(log) != want {
		t.Fatalf("fired %v, want %s", log, want)
	}

	log = log[:0]
	e = New()
	at(e, 1, "first")
	e.SetSampler(250, func(at Time) { log = append(log, fmt.Sprintf("sample@%d", at)) })
	if err := e.RunContextFired(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	at(e, 1000, "far")
	at(e, 500, "mid")
	at(e, 1, "now")
	if q := fmt.Sprint(e.AppendQueue(nil)); q != "[{1ns 3} {500ns 2} {1µs 1}]" {
		t.Fatalf("queue %s", q)
	}
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := "[first@1 now@1 sample@250 sample@500 mid@500 sample@750 sample@1000 far@1000]"
	if fmt.Sprint(log) != want {
		t.Fatalf("fired %v, want %s", log, want)
	}
}

// TestRunContextFiredZeroFiresNothing replays a fresh engine to event 0:
// the target is already reached, so nothing fires and the queue stays
// as it was.
func TestRunContextFiredZeroFiresNothing(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.After(Time(i+1), func(Time) { t.Error("an event fired on the way to event 0") })
	}
	if err := e.RunContextFired(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 0 || e.Pending() != 5 {
		t.Fatalf("fired %d, pending %d: want 0 and 5", e.Fired(), e.Pending())
	}
}
