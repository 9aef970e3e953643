// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure (the regeneration cost of each artefact). The substrate
// micro-benchmarks live in the root package.
//
// Run them with:
//
//	go test -bench=. -benchmem ./internal/experiment
//
// The per-figure benches use a deeper workload scale than cmd/edmbench's
// default so `go test -bench` stays in seconds; use cmd/edmbench for the
// paper-shaped output at full experiment scale.
package experiment_test

import (
	"testing"

	"edm/internal/experiment"
)

// benchOpts is the reduced experiment scope used by the per-figure
// benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{
		Scale:     100,
		Seed:      42,
		OSDCounts: []int{16},
		Traces:    []string{"home02", "deasna", "lair62"},
	}
}

// BenchmarkTable1Workloads regenerates Table I (all seven generators).
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1WearVariance regenerates the Fig. 1 wear-variance runs.
func BenchmarkFig1WearVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3WearModel regenerates the Fig. 3 u_r measurement sweep.
func BenchmarkFig3WearModel(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatrix runs the shared Fig. 5/6/8 matrix once per iteration.
func benchMatrix(b *testing.B) []experiment.Cell {
	cells := experiment.Matrix(benchOpts())
	for _, c := range cells {
		if c.Err != nil {
			b.Fatal(c.Err)
		}
	}
	return cells
}

// BenchmarkFig5Throughput regenerates the Fig. 5 throughput matrix.
func BenchmarkFig5Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig5(benchOpts(), cells).Format()
	}
}

// BenchmarkFig6EraseCount regenerates the Fig. 6 erase-count matrix.
func BenchmarkFig6EraseCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig6(benchOpts(), cells).Format()
	}
}

// BenchmarkFig7ResponseTime regenerates the Fig. 7 timelines.
func BenchmarkFig7ResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MovedObjects regenerates the Fig. 8 migration-volume
// matrix.
func BenchmarkFig8MovedObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig8(benchOpts(), cells).Format()
	}
}

// BenchmarkAblationLambda runs the λ-sweep ablation.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.AblationLambda(benchOpts())
	}
}

// BenchmarkAblationRemapPreference runs the §III.C preference ablation.
func BenchmarkAblationRemapPreference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.AblationRemapPreference(benchOpts())
	}
}
