package main

import (
	"context"
	"math"
	"testing"
	"time"

	"edm"
)

// countingWorkload answers unit i with a result whose Completed is i.
type countingWorkload struct{}

func (countingWorkload) start(context.Context) error        { return nil }
func (countingWorkload) stop()                              {}
func (countingWorkload) verify(context.Context, []*outcome) {}
func (countingWorkload) digest([]*outcome) string           { return "" }

func (countingWorkload) unit(_ context.Context, i int, tr *tracer) outcome {
	id := tr.begin("unit", 0)
	time.Sleep(time.Millisecond)
	tr.end(id)
	return outcome{res: &edm.Result{Completed: i}}
}

// The caller runs units 0..n-1 in order until the phase has run its
// time and the prefix, ending on a group boundary, and times the probe
// before the first unit, between units and after the last.
func TestMeasureRunsContiguousUnits(t *testing.T) {
	sh := shape{group: 7, prefix: 20}
	tr := &tracer{}
	p := measure(context.Background(), countingWorkload{}, newProbe(), tr, timed(sh, 30*time.Millisecond))
	n := len(p.outs)
	if n < sh.prefix || n%sh.group != 0 {
		t.Errorf("%d units, want at least %d on a multiple of %d", n, sh.prefix, sh.group)
	}
	for i, o := range p.outs {
		if o.res == nil || o.res.Completed != i || o.lat <= 0 || o.start.Before(p.first) {
			t.Fatalf("unit %d = %+v", i, o)
		}
	}
	if len(tr.spans) != n {
		t.Errorf("%d spans for %d units", len(tr.spans), n)
	}
	var unitTime time.Duration
	for _, o := range p.outs {
		unitTime += o.lat
	}
	// One probe before, one after, and one per probeEvery of unit time.
	if want := 2 + int(unitTime/probeEvery); len(p.speed) < want-1 || len(p.speed) > want {
		t.Errorf("%d probes over %v of units, want %d", len(p.speed), unitTime, want)
	}
	if !p.speed[0].at.Before(p.first) || p.speed[len(p.speed)-1].at.Before(p.outs[n-1].start) {
		t.Error("the probes do not bracket the units")
	}
	if p.speed[0].probe <= 0 {
		t.Errorf("first probe took %v", p.speed[0].probe)
	}
}

// The end-to-end metrics are CPU times scaled by the probes around each
// unit, and the live heap counts only while the prefix runs.
func TestEndToEndScalesCPU(t *testing.T) {
	t0 := time.Unix(0, 0)
	p := &phase{first: t0}
	for i := 0; i < 200; i++ {
		cpu := 10 * time.Millisecond
		if i%10 == 9 {
			cpu = 20 * time.Millisecond
		}
		p.outs = append(p.outs, &outcome{
			start: t0.Add(time.Duration(i) * 100 * time.Millisecond), lat: 50 * time.Millisecond, cpu: cpu,
			res: &edm.Result{Completed: 1000}, heapMB: float64(i),
		})
	}
	// The host runs at half speed, so every CPU time scales by 1/2; the
	// live heap grows by 1 MB per unit.
	for i := 0; i <= 200; i += 10 {
		p.speed = append(p.speed, reading{at: t0.Add(time.Duration(i) * 100 * time.Millisecond), probe: 2 * probeNominal})
	}
	m, err := endToEnd(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"unit_cpu_ms_p50":   5,
		"unit_cpu_ms_p90":   5,
		"sim_ops_per_cpu_s": 200 * 1000 / (0.9*200*0.005 + 0.1*200*0.010),
		"heap_live_mb":      49.5,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// A unit's scale comes from the median of the probeWindow probes
// nearest to it, so a probe slowed once does not set it, and a phase
// whose host slows down is scaled by the probes of its slow part.
func TestHostSpeedScale(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var h hostSpeed
	for i := 0; i < 20; i++ {
		d := probeNominal
		if i >= 10 {
			d = 2 * probeNominal // the host runs at half speed from 1 s on
		}
		if i == 3 {
			d = 10 * probeNominal // one probe interrupted
		}
		h = append(h, reading{at: at(100 * i), probe: d})
	}
	for _, tc := range []struct {
		at   time.Time
		want float64
	}{
		{at(-50), 1}, // before the first probe: the first five
		{at(310), 1}, // beside the interrupted probe
		{at(500), 1},
		{at(1450), 0.5},
		{at(5000), 0.5}, // after the last probe: the last five
	} {
		if got := h.scaleAt(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("scaleAt(%v) = %v, want %v", tc.at.Sub(t0), got, tc.want)
		}
	}
	if (hostSpeed{}).scaleAt(t0) != 1 || h[:1].scaleAt(at(900)) != 1 {
		t.Error("a phase with one probe or none is not scaled by it")
	}
}
