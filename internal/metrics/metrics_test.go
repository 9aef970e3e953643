package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Started() {
		t.Fatal("fresh EWMA reports Started")
	}
	e.Observe(10)
	if !e.Started() || e.Value() != 10 {
		t.Fatalf("after first observation: started=%v value=%v", e.Started(), e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA(0.5) of 10,20 = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("EWMA stable input moved: %v", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	e.Observe(100)
	for i := 0; i < 200; i++ {
		e.Observe(5)
	}
	if math.Abs(e.Value()-5) > 1e-6 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v must panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
	NewEWMA(1) // boundary is legal
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.Count() != 8 {
		t.Fatalf("count %d", r.Count())
	}
	if r.Mean() != 5 {
		t.Fatalf("mean %v", r.Mean())
	}
	if r.StdDev() != 2 {
		t.Fatalf("stddev %v, want 2", r.StdDev())
	}
	if r.Sum() != 40 {
		t.Fatalf("sum %v", r.Sum())
	}
	if math.Abs(r.RSD()-0.4) > 1e-12 {
		t.Fatalf("rsd %v, want 0.4", r.RSD())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.RSD() != 0 || r.Count() != 0 {
		t.Fatal("zero-value Running must report zeros")
	}
}

func TestRSDHelper(t *testing.T) {
	if got := RSD([]float64{1, 1, 1}); got != 0 {
		t.Fatalf("RSD of constants = %v", got)
	}
	if got := RSD[float64](nil); got != 0 {
		t.Fatalf("RSD of empty = %v", got)
	}
	// Counters convert element by element, in order: bit-identical to
	// the float64 slice of the same values.
	counts := []uint64{3, 1 << 40, 7, 0, 12345}
	fs := make([]float64, len(counts))
	for i, c := range counts {
		fs[i] = float64(c)
	}
	if got, want := RSD(counts), RSD(fs); got != want {
		t.Fatalf("RSD(uint64) = %v, RSD(float64) = %v", got, want)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1,2,3]) != 2")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertyRunningMatchesNaive(t *testing.T) {
	f := func(xsRaw []int16) bool {
		if len(xsRaw) == 0 {
			return true
		}
		xs := make([]float64, len(xsRaw))
		var r Running
		var sum float64
		for i, v := range xsRaw {
			xs[i] = float64(v)
			r.Observe(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var varSum float64
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		variance := varSum / float64(len(xs))
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Variance()-variance) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0.99); q != 99 {
		t.Fatalf("p99 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	var h Histogram
	h.Observe(7)
	// With one sample, every quantile is that sample.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
	if h.Count() != 1 || h.Mean() != 7 {
		t.Errorf("count %d mean %v, want 1 and 7", h.Count(), h.Mean())
	}
}

func TestHistogramAllEqualQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 42; i++ {
		h.Observe(3.5)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3.5 {
			t.Errorf("all-equal Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	if m := h.Mean(); m != 3.5 {
		t.Errorf("all-equal mean = %v, want 3.5", m)
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	var h Histogram
	h.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("quantile > 1 must panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Quantile(0.5)
	h.Observe(1) // must be seen by the next query
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("histogram stale after post-quantile observe: p0=%v", q)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		lo, hi := math.Inf(1), math.Inf(-1)
		n := rnd.Intn(200) + 1
		for i := 0; i < n; i++ {
			x := rnd.NormFloat64() * 100
			h.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v", q)
			}
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("quantile %v outside [%v,%v]", v, lo, hi)
			}
			prev = v
		}
	}
}

// Property: Quantile's selection returns, bit for bit, the nearest-rank
// element of a sort.Float64s reference — on shuffled inputs with many
// duplicates, on presorted, reversed and all-equal inputs, with NaNs and
// infinities, and for repeated queries on one histogram (each query
// starts from the order the previous one left) — and only reorders the
// samples, leaving Mean as the observation-order mean.
func TestPropertyQuantileMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	qs := []float64{0, 0.01, 0.5, 0.99, 1}
	nearest := func(sorted []float64, q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rnd.Intn(300)
		if trial%10 == 0 {
			n = 1000 + rnd.Intn(5000)
		}
		distinct := 1 + rnd.Intn(n) // few distinct values: many duplicates
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rnd.Intn(distinct)) * 0.001
		}
		switch trial % 5 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		case 3:
			xs[rnd.Intn(n)] = math.NaN()
			xs[rnd.Intn(n)] = math.Inf(1)
			xs[rnd.Intn(n)] = math.Inf(-1)
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)

		var shared Histogram
		for _, x := range xs {
			shared.Observe(x)
		}
		for _, q := range qs {
			want := nearest(ref, q)
			var h Histogram
			for _, x := range xs {
				h.Observe(x)
			}
			for name, got := range map[string]float64{"fresh": h.Quantile(q), "repeated": shared.Quantile(q)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (n=%d, %d distinct) %s Quantile(%v) = %v, sorted reference %v",
						trial, n, distinct, name, q, got, want)
				}
			}
			if got, want := shared.Mean(), Mean(xs); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: Mean after Quantile = %v, observation-order mean %v", trial, got, want)
			}
			after := append([]float64(nil), h.Samples()...)
			sort.Float64s(after)
			for i := range after {
				if math.Float64bits(after[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("trial %d: Quantile changed the samples, not just their order", trial)
				}
			}
		}
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Observe(0, 1)
	ts.Observe(9.99, 3)
	ts.Observe(10, 10)
	ts.Observe(25, 7)
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].Time != 0 || pts[0].Mean != 2 || pts[0].Count != 2 {
		t.Fatalf("bucket 0: %+v", pts[0])
	}
	if pts[1].Time != 10 || pts[1].Mean != 10 {
		t.Fatalf("bucket 1: %+v", pts[1])
	}
	if pts[2].Time != 20 || pts[2].Mean != 7 {
		t.Fatalf("bucket 2: %+v", pts[2])
	}
}

func TestTimeSeriesPointsSorted(t *testing.T) {
	ts := NewTimeSeries(1)
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		ts.Observe(tm, tm)
	}
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatal("points not sorted by time")
		}
	}
}

func TestTimeSeriesWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive width must panic")
		}
	}()
	NewTimeSeries(0)
}
