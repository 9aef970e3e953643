// Telemetry walkthrough: instrument the Fig.-7 HDF experiment and render
// its migration window as a trace-viewer file.
//
// A 16-OSD cluster replays home02 with EDM-HDF and a forced midpoint
// shuffle. The run records every telemetry event class; afterwards the
// example prints the migration story straight from the event log — the
// trigger evaluation, the plan, the §V.D park/resume pairs that cause
// the Fig.-7 response-time spike — and writes three files:
//
//	telemetry-out/events.ndjson   one JSON object per event (stream-friendly)
//	telemetry-out/snapshots.csv   periodic counter/gauge/histogram samples
//	telemetry-out/trace.json      Chrome trace_event format
//
// Load trace.json in chrome://tracing or https://ui.perfetto.dev: the
// "migration moves" track shows one slice per object move, the "hdf
// wait-list" track shows each blocked request parked on a locked object,
// and the per-OSD backlog counters spike over the same window.
//
// Run with:
//
//	go run ./examples/telemetry
package main

import (
	"context"
	"fmt"
	"log"

	"edm"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

func main() {
	const workload = "home02"
	fmt.Printf("tracing EDM-HDF on %s, 16 OSDs, midpoint shuffle\n\n", workload)

	sink, err := telemetry.SinkConfig{Dir: "telemetry-out", Events: "all"}.NewSink("")
	if err != nil {
		log.Fatal(err)
	}

	spec := edm.Spec{
		Workload: workload,
		OSDs:     16,
		Policy:   edm.PolicyHDF,
		Scale:    20,
		Seed:     42,
	}
	res, err := edm.Run(context.Background(), spec,
		edm.WithTelemetry(sink.Tracer), edm.WithMetrics(sink.Registry, sim.Second/4))
	if err != nil {
		log.Fatal(err)
	}

	// The migration story, read straight from the event log.
	var trigger telemetry.MigrationTrigger
	var plan telemetry.MigrationPlan
	var firstPark, lastResume sim.Time
	var parked, resumed int
	for _, ev := range sink.Tracer.Events() {
		switch e := ev.(type) {
		case telemetry.MigrationTrigger:
			trigger = e
		case telemetry.MigrationPlan:
			plan = e
		case telemetry.WaitPark:
			if parked == 0 {
				firstPark = e.T
			}
			parked++
		case telemetry.WaitResume:
			lastResume = e.T
			resumed += e.Resumed
		}
	}

	fmt.Printf("run        %d ops over %s, mean response %.3f ms\n",
		res.Completed, res.Makespan, res.MeanResponse*1000)
	fmt.Printf("trigger    RSD(E_c)=%.3f vs λ=%.2f (fired=%v forced=%v)\n",
		trigger.RSD, trigger.Lambda, trigger.Fired, trigger.Forced)
	fmt.Printf("plan       %s: %d moves, %.1f MB\n",
		plan.Policy, plan.Moves, float64(plan.Bytes)/(1<<20))
	fmt.Printf("window     %s – %s (the Fig.-7 spike)\n",
		res.MigrationStart, res.MigrationEnd)
	if parked > 0 {
		fmt.Printf("HDF locks  %d requests parked between %s and %s, %d resumed\n",
			parked, firstPark, lastResume, resumed)
	}
	fmt.Printf("\nevents     %d recorded (%d moves committed)\n",
		sink.Tracer.Len(), sink.Tracer.CountKind("migration.move.commit"))

	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote:")
	for _, f := range sink.Files() {
		fmt.Printf("  %s\n", f)
	}
	fmt.Println("\nopen trace.json in chrome://tracing or https://ui.perfetto.dev")
}
