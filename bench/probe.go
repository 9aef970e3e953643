package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few virtual cores of a shared host, and two
// things move its timings by tens of percent over seconds to minutes.
// The hypervisor takes the cores away now and then (steal): that time
// shows in wall time but not in CPU time, which the kernel keeps net of
// steal. And the cores run slower or faster with what the other tenants
// run: that moves CPU time too. So the benchmark measures CPU time, and
// times a fixed probe computation, in CPU time as well, between its
// units; every time it reports is scaled to a nominal host speed: a
// unit's time × probeNominal ÷ the probe's time around that unit. The
// probe uses none of the simulator's code, so a change to the simulator
// moves the scaled times exactly as it moves the raw ones.
const (
	// probeKeys is how many seeded 64-bit keys one probe sorts. Sorting
	// tracked the simulator's slowdowns at least as closely as the other
	// probes tried: a pointer chase through a 4 MB permutation, a map
	// fill, scattered updates over 8 MB and a heap-driven event loop.
	probeKeys = 1 << 14
	// probeNominal is the probe's CPU time at the nominal host speed:
	// its median over 40 runs on the 2-vCPU machine the baseline was
	// recorded on, where it ranged from 1.41 to 1.78 ms.
	probeNominal = 1640 * time.Microsecond
	// probeEvery is how much unit time passes between two probes; the
	// probes cost at most 4 % of the run.
	probeEvery = 40 * time.Millisecond
	// probeWindow is how many probes nearest in time to a unit give its
	// scale, by their median, so that one probe a timer interrupt slowed
	// does not set it.
	probeWindow = 5
)

// probe is the fixed computation that measures the host's speed.
type probe struct{ keys, buf []uint64 }

func newProbe() *probe {
	r := rand.New(rand.NewSource(1)) // the same keys in every run
	p := &probe{keys: make([]uint64, probeKeys), buf: make([]uint64, probeKeys)}
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	p.time() // the first sort pays the buffer's page faults
	return p
}

// time sorts a copy of the keys, which allocates nothing, and returns
// the CPU time the sorting thread spent on it.
func (p *probe) time() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	return threadCPU() - t0
}

// reading is one timing of the probe between two units.
type reading struct {
	at    time.Time
	probe time.Duration
}

// hostSpeed maps a time during a phase to the scale that turns a time
// measured then into a time at the nominal host speed.
type hostSpeed []reading // in time order

// scaleAt is probeNominal over the median of the probeWindow probes
// nearest to t, or 1 without probes.
func (h hostSpeed) scaleAt(t time.Time) float64 {
	if len(h) == 0 {
		return 1
	}
	j := sort.Search(len(h), func(i int) bool { return !h[i].at.Before(t) })
	lo, hi := j, j // the window [lo, hi) grows toward the nearer probe
	for hi-lo < probeWindow && (lo > 0 || hi < len(h)) {
		switch {
		case lo == 0:
			hi++
		case hi == len(h):
			lo--
		case t.Sub(h[lo-1].at) <= h[hi].at.Sub(t):
			lo--
		default:
			hi++
		}
	}
	return float64(probeNominal) / median(h[lo:hi].probes())
}

// probes returns the probe times in ns.
func (h hostSpeed) probes() []float64 {
	ds := make([]float64, len(h))
	for i, r := range h {
		ds[i] = float64(r.probe)
	}
	return ds
}

// setupSamples is how many probe times scale a child's set-up time.
const setupSamples = 5

// setupScale is probeNominal over the median of setupSamples probes,
// the scale of a child's set-up time.
func (p *probe) setupScale() float64 {
	ds := make([]float64, setupSamples)
	for i := range ds {
		ds[i] = float64(p.time())
	}
	return float64(probeNominal) / median(ds)
}

// Clocks of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the process's user plus system CPU time so far, on every
// thread: a unit's includes the GC work done beside it.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// cpuClock reads a CPU-time clock, which unlike getrusage is exact to
// the nanosecond for the calling thread rather than to the 4 ms tick.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
