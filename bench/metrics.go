package main

import (
	"fmt"
	"time"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run, every one of them
// reported for every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"sim_ops_per_cpu_s", "ops/s"},
	{"unit_cpu_ms_p50", "ms"},
	{"unit_cpu_ms_p90", "ms"},
	{"heap_live_mb", "MB"},
}

// spanNames are the spans a traced run records; each gets a share of
// the total self time.
var spanNames = []string{
	"unit", "trace.generate", "cluster.new", "cluster.run", "migration.plan",
	"snapshot.capture", "snapshot.readlast", "cluster.fastforward", "snapshot.verify",
	"cluster.continue", "server.submit", "server.stream", "sched.queue", "server.exec",
}

// layerDefs are the metrics of a traced run, every one of them reported
// for every workload (0 where the layer does no work).
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"trace.generate_ms", "ms"},
		{"trace.records", "count"},
		{"cluster.new_ms", "ms"},
		{"cluster.run_ms", "ms"},
		{"cluster.events", "count"},
		{"cluster.ns_per_event", "ns"},
		{"migration.plan_ms", "ms"},
		{"migration.plan_calls", "count"},
		{"migration.moves_planned", "count"},
		{"migration.moved_objects", "count"},
		{"migration.commit_frac", "ratio"},
		{"migration.blocked_ops", "count"},
		{"snapshot.capture_ms", "ms"},
		{"snapshot.frames", "count"},
		{"snapshot.frame_kb", "KB"},
		{"snapshot.readlast_ms", "ms"},
		{"snapshot.verify_ms", "ms"},
		{"cluster.fastforward_ms", "ms"},
		{"cluster.continue_ms", "ms"},
		{"edm.resume_replayed_frac", "ratio"},
		{"server.submit_ms_p50", "ms"},
		{"server.submit_ms_p90", "ms"},
		{"server.exec_ms_p50", "ms"},
		{"server.delivery_ms_p50", "ms"},
		{"server.rejected", "count"},
		{"server.result_kb", "KB"},
		{"sched.queue_wait_ms_p50", "ms"},
		{"sched.queue_wait_ms_p90", "ms"},
		{"flash.host_pages", "count"},
		{"flash.erases", "count"},
		{"flash.erases_per_kpage", "ratio"},
		{"runtime.alloc_mb_per_kop", "MB/kop"},
		{"runtime.mallocs_per_op", "1/op"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace_overhead_frac", "ratio"},
		{"host.probe_ms", "ms"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{"share." + n, "ratio"})
	}
	return defs
}()

// endToEnd computes the metrics of an untraced phase whose first prefix
// units every run completes (setup_s comes from the parent, which
// starts the set-up children). Every time is CPU time scaled to the
// nominal host speed.
func endToEnd(p *phase, prefix int) (map[string]float64, error) {
	cpus := make([]float64, len(p.outs))
	var cpuMs float64
	ops := 0
	for i, o := range p.outs {
		cpus[i] = ms(o.cpu) * p.scale(o)
		cpuMs += cpus[i]
		ops += o.ops()
	}
	p50, _ := percentile(cpus, 0.5)
	p90, ok := percentile(cpus, 0.9)
	if !ok {
		return nil, fmt.Errorf("%d units are too few for a p90 with %d samples beyond it", len(cpus), minBeyond)
	}
	if ops == 0 || cpuMs == 0 {
		return nil, fmt.Errorf("no simulated operation completed, or no CPU time was read")
	}
	// The mean, not the median: where the live heap ramps up (sweep's
	// memo fills over the prefix, in a dozen GC cycles) the median is
	// whichever step lies mid-ramp, and moves with the GC's timing.
	var heapMB float64
	n := min(prefix, len(p.outs))
	for _, o := range p.outs[:n] {
		heapMB += o.heapMB / float64(n)
	}
	return map[string]float64{
		"sim_ops_per_cpu_s": float64(ops) / (cpuMs / 1e3),
		"unit_cpu_ms_p50":   p50,
		"unit_cpu_ms_p90":   p90,
		"heap_live_mb":      heapMB,
	}, nil
}

// layerMetrics computes the metrics of a traced phase a. Timings come
// from the spans of every unit, scaled to the nominal host speed;
// counts are sums over the prefix units, so they repeat exactly for a
// seed. b is the untraced re-run of the prefix that trace_overhead_frac
// compares against; extra holds the counters a workload keeps outside
// its units.
func layerMetrics(a, b *phase, prefix int, spans []span, extra map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	p90 := func(xs []float64) float64 { v, _ := percentile(xs, 0.9); return v }
	spanP50 := func(name string) float64 { return p50(durations(spans, name, a.speed)) }

	var (
		sum                    layers
		moved, blocked         int
		movedBytes             int64
		hostPages, erases      uint64
		submit, exec, delivery []float64
		queue                  []float64
		resultBytes, served    int
		runMs                  float64
		allEvents              uint64
	)
	for i, o := range a.outs {
		ly := o.ly
		allEvents += ly.events
		scale := a.scale(o)
		if ly.submitMs > 0 {
			submit = append(submit, ly.submitMs*scale)
			delivery = append(delivery, ly.deliveryMs*scale)
			resultBytes += ly.resultBytes
			served++
		}
		if ly.execMs > 0 {
			exec = append(exec, ly.execMs*scale)
			queue = append(queue, ly.queueMs*scale)
		}
		if i >= prefix {
			continue
		}
		sum.records += ly.records
		sum.events += ly.events
		sum.replayed += ly.replayed
		sum.resumeEvents += ly.resumeEvents
		sum.planCalls += ly.planCalls
		sum.moves += ly.moves
		sum.plannedBytes += ly.plannedBytes
		sum.frames += ly.frames
		sum.frameBytes += ly.frameBytes
		if o.res != nil {
			moved += o.res.MovedObjects
			movedBytes += o.res.MovedBytes
			blocked += int(o.res.BlockedOps)
			hostPages += o.res.AggregateWrites
			erases += o.res.AggregateErases
		}
	}
	for _, d := range durations(spans, "cluster.run", a.speed) {
		runMs += d
	}

	m["trace.generate_ms"] = spanP50("trace.generate")
	m["trace.records"] = float64(sum.records)
	m["cluster.new_ms"] = spanP50("cluster.new")
	m["cluster.run_ms"] = spanP50("cluster.run")
	m["cluster.events"] = float64(sum.events)
	m["cluster.ns_per_event"] = ratio(runMs*1e6, float64(allEvents))
	m["migration.plan_ms"] = spanP50("migration.plan")
	m["migration.plan_calls"] = float64(sum.planCalls)
	m["migration.moves_planned"] = float64(sum.moves)
	m["migration.moved_objects"] = float64(moved)
	m["migration.commit_frac"] = ratio(float64(movedBytes), float64(sum.plannedBytes))
	m["migration.blocked_ops"] = float64(blocked)
	m["snapshot.capture_ms"] = spanP50("snapshot.capture")
	m["snapshot.frames"] = float64(sum.frames)
	m["snapshot.frame_kb"] = ratio(float64(sum.frameBytes)/1024, float64(sum.frames))
	m["snapshot.readlast_ms"] = spanP50("snapshot.readlast")
	m["snapshot.verify_ms"] = spanP50("snapshot.verify")
	m["cluster.fastforward_ms"] = spanP50("cluster.fastforward")
	m["cluster.continue_ms"] = spanP50("cluster.continue")
	m["edm.resume_replayed_frac"] = ratio(float64(sum.replayed), float64(sum.resumeEvents))
	m["server.submit_ms_p50"] = p50(submit)
	m["server.submit_ms_p90"] = p90(submit)
	m["server.exec_ms_p50"] = p50(exec)
	m["server.delivery_ms_p50"] = p50(delivery)
	m["server.result_kb"] = ratio(float64(resultBytes)/1024, float64(served))
	m["sched.queue_wait_ms_p50"] = p50(queue)
	m["sched.queue_wait_ms_p90"] = p90(queue)
	m["server.rejected"] = extra["server.rejected"]
	m["flash.host_pages"] = float64(hostPages)
	m["flash.erases"] = float64(erases)
	m["flash.erases_per_kpage"] = ratio(float64(erases), float64(hostPages)/1000)

	ops := 0
	for _, o := range a.outs {
		ops += o.ops()
	}
	m["runtime.alloc_mb_per_kop"] = ratio(float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc)/(1<<20), float64(ops)/1000)
	m["runtime.mallocs_per_op"] = ratio(float64(a.mem1.Mallocs-a.mem0.Mallocs), float64(ops))
	m["runtime.gc_cycles"] = float64(a.mem1.NumGC - a.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs) / 1e6

	var traced, plain float64
	for i := 0; i < prefix && i < len(a.outs) && i < len(b.outs); i++ {
		traced += a.scaled(a.outs[i])
		plain += b.scaled(b.outs[i])
	}
	m["trace_overhead_frac"] = ratio(traced, plain) - 1
	m["host.probe_ms"] = median(a.speed.probes()) / 1e6

	self := selfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, n := range spanNames {
		m["share."+n] = ratio(float64(self[n]), float64(total))
	}
	return m
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
