package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// chain is an action that logs each firing and re-arms itself a few
// times, so a forked queue has to keep scheduling after the fork.
type chain struct {
	e    *Engine
	log  *[]string
	id   int
	left int
}

func (c *chain) Fire(now Time) {
	*c.log = append(*c.log, fmt.Sprintf("%d@%v", c.id, now))
	if c.left > 0 {
		c.left--
		c.e.AfterAction(Time(c.id%3+1), c)
	}
}

func TestForkReplaysTheSameSchedule(t *testing.T) {
	var origLog, forkLog []string
	e := New()
	for i := 0; i < 6; i++ {
		e.AtAction(Time(i%2), &chain{e: e, log: &origLog, id: i, left: 5})
	}
	for i := 0; i < 7; i++ {
		e.Step()
	}
	origLog = origLog[:0]
	f, err := e.Fork(nil, func(a Action) Action {
		c := *a.(*chain)
		c.e, c.log = nil, &forkLog
		return &c
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.slots {
		if c, ok := f.slots[i].act.(*chain); ok {
			c.e = f
		}
	}
	if f.Now() != e.Now() || f.Fired() != e.Fired() || f.Seq() != e.Seq() || f.Pending() != e.Pending() {
		t.Fatalf("fork at (%v, %d, %d, %d), original at (%v, %d, %d, %d)",
			f.Now(), f.Fired(), f.Seq(), f.Pending(), e.Now(), e.Fired(), e.Seq(), e.Pending())
	}
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(origLog) == 0 || !reflect.DeepEqual(origLog, forkLog) {
		t.Fatalf("fork fired %v, original %v", forkLog, origLog)
	}
}

func TestForkRefusals(t *testing.T) {
	keep := func(a Action) Action { return a }
	closure := New()
	closure.At(5, func(Time) {})
	if _, err := closure.Fork(nil, keep); err == nil {
		t.Error("fork with a pending closure accepted")
	}
	hooked := New()
	hooked.SetCheckpoint(10, 0, func(Time) error { return nil })
	if _, err := hooked.Fork(nil, keep); err == nil {
		t.Error("fork with a checkpoint hook accepted")
	}
	unmapped := New()
	unmapped.AtAction(1, &chain{e: unmapped, log: new([]string)})
	if _, err := unmapped.Fork(nil, func(Action) Action { return nil }); err == nil {
		t.Error("fork with an action remap dropped accepted")
	}
	running := New()
	var inner error
	running.At(1, func(Time) { _, inner = running.Fork(nil, keep) })
	running.Run()
	if inner == nil {
		t.Error("fork of a running engine accepted")
	}
}

// TestCheckpointCountdown pins the hook positions of SetCheckpoint:
// every multiple of every and of poll, and nothing else.
func TestCheckpointCountdown(t *testing.T) {
	e := New()
	var tick Action
	n := 0
	tick = funcAction(func(Time) {
		if n++; n < 100 {
			e.AfterAction(1, tick)
		}
	})
	e.AtAction(0, tick)
	var at []uint64
	e.SetCheckpoint(15, 6, func(Time) error { at = append(at, e.Fired()); return nil })
	if err := e.RunContextFired(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	e.Step() // outside a hooked loop: the countdown restarts from here
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for f := uint64(1); f <= 100; f++ {
		if f%15 == 0 || f%6 == 0 {
			want = append(want, f)
		}
	}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("hook ran at %v, want %v", at, want)
	}
}

// funcAction adapts a func to Action.
type funcAction func(Time)

func (f funcAction) Fire(now Time) { f(now) }
