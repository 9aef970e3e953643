package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"time"
)

// hardCap ends a timed phase that the minimum unit count would stretch
// past the benchmark's time limit; such a run fails its checks.
const hardCap = 120 * time.Second

// phase is one closed-loop measurement: the outcomes in unit order and
// what the process spent on them.
type phase struct {
	outs       []*outcome
	first      time.Time // first unit issued
	speed      hostSpeed // the readings taken between the units
	mem0, mem1 runtime.MemStats
}

// measure runs units 0, 1, … one after another, each issued when the
// last returned, until done reports true for the number of units run so
// far. It times the probe before the first unit, after every probeEvery
// of unit time and after the last unit, and reads the live heap after
// every unit.
func measure(ctx context.Context, w workload, pr *probe, tr *tracer, done func(units int, elapsed time.Duration) bool) *phase {
	p := &phase{}
	read := func() {
		p.speed = append(p.speed, reading{at: time.Now(), probe: pr.time()})
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.ReadMemStats(&p.mem0)
	read()
	p.first = time.Now()
	var sinceProbe time.Duration
	for i := 0; !done(i, time.Since(p.first)); i++ {
		t0, cpu0 := time.Now(), processCPU()
		o := w.unit(ctx, i, tr)
		o.start, o.lat, o.cpu = t0, time.Since(t0), processCPU()-cpu0
		metrics.Read(live)
		o.heapMB = float64(live[0].Value.Uint64()) / (1 << 20)
		p.outs = append(p.outs, &o)
		if sinceProbe += o.lat; sinceProbe >= probeEvery {
			read()
			sinceProbe = 0
		}
	}
	read()
	runtime.ReadMemStats(&p.mem1)
	return p
}

// scale is the factor that turns o's times into times at the nominal
// host speed.
func (p *phase) scale(o *outcome) float64 {
	return p.speed.scaleAt(o.start.Add(o.lat / 2))
}

// scaled is the wall time o took at the nominal host speed, in ms.
func (p *phase) scaled(o *outcome) float64 { return ms(o.lat) * p.scale(o) }

// timed ends a phase once it has run for d and run at least the prefix,
// on a group boundary; or at the hard cap.
func timed(sh shape, d time.Duration) func(int, time.Duration) bool {
	return func(units int, elapsed time.Duration) bool {
		return elapsed >= hardCap || elapsed >= d && units >= sh.prefix && units%sh.group == 0
	}
}

// upTo ends a phase once n units have run.
func upTo(n int) func(int, time.Duration) bool {
	return func(units int, _ time.Duration) bool { return units >= n }
}
