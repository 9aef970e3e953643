// Package metrics provides the statistical primitives used throughout the
// EDM simulator: exponentially weighted moving averages (the CMT load
// factor), running mean/variance (wear-imbalance trigger), streaming
// histograms with percentiles (response times), and time-bucketed series
// (the Fig. 7 response-time timeline).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// EWMA is an exponentially weighted moving average. The zero value is not
// usable; construct with NewEWMA. It is a plain value: a copy is
// independent of its original.
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(x float64) {
	if !e.started {
		e.value = x
		e.started = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Started reports whether at least one sample has been observed.
func (e *EWMA) Started() bool { return e.started }

// Running accumulates count, mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	sum  float64
}

// Observe adds a sample.
func (r *Running) Observe(x float64) {
	r.n++
	r.sum += x
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count returns the number of samples.
func (r *Running) Count() int64 { return r.n }

// Sum returns the sum of samples.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// RSD returns the relative standard deviation (stddev / mean), the wear
// imbalance measure in the EDM trigger condition. It returns 0 when the
// mean is 0.
func (r *Running) RSD() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.StdDev() / r.mean
}

// RSD computes the relative standard deviation of a slice in one pass;
// per-device counters (erase counts, write pages) pass as they are.
func RSD[T uint64 | float64](xs []T) float64 {
	var r Running
	for _, x := range xs {
		r.Observe(float64(x))
	}
	return r.RSD()
}

// Mean computes the arithmetic mean of a slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Histogram collects samples for percentile queries. It stores raw
// values; simulation runs produce at most a few million samples, well
// within memory for the experiment scale.
type Histogram struct {
	xs  []float64
	sum float64 // of xs, added in observation order
}

// Observe adds a sample.
func (h *Histogram) Observe(x float64) {
	h.xs = append(h.xs, x)
	h.sum += x
}

// Reset clears the histogram and adopts buf's backing storage for
// subsequent samples, letting a harness recycle sample buffers across
// runs instead of regrowing them, or size the buffer once up front.
func (h *Histogram) Reset(buf []float64) {
	h.xs = buf[:0]
	h.sum = 0
}

// Buffer surrenders the sample buffer for recycling via Reset on another
// histogram. The histogram must not be used afterwards.
func (h *Histogram) Buffer() []float64 { return h.xs }

// Samples exposes the raw sample slice for read-only inspection (state
// digests). Samples appear in observation order until the first
// Quantile call reorders them in place; callers that need a
// capture-order-stable view must read before querying quantiles.
func (h *Histogram) Samples() []float64 { return h.xs }

// Clone returns a copy of h whose samples, in h's current order, live
// in buf's backing storage (buf may be nil; it grows when too small).
// h is only read, so the copy shares no memory with it as long as buf
// does not.
func (h *Histogram) Clone(buf []float64) *Histogram {
	return &Histogram{xs: append(buf[:0], h.xs...), sum: h.sum}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.xs) }

// Mean returns the sample mean. The samples are summed in observation
// order, whatever order Quantile has left them in.
func (h *Histogram) Mean() float64 {
	if len(h.xs) == 0 {
		return 0
	}
	return h.sum / float64(len(h.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank: the
// element at index ⌈q·n⌉−1 of the samples in sort.Float64s order. It
// finds that element by selection, in expected linear time, reordering
// the samples in place. It returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.xs) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	idx := int(math.Ceil(q*float64(len(h.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return selectNth(h.xs, idx)
}

// selectNth reorders xs so that xs[k] is the element a sort.Float64s
// would put there, with no element before it greater and none after it
// less, and returns it. It is Hoare's selection: partition around a
// median-of-three pivot, then continue in the side that holds k only.
// Samples that compare equal are the same value, so the result is the
// sorted element bit for bit (only +0 and −0, equal but distinct, could
// swap).
func selectNth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Order xs[lo] <= xs[mid] <= xs[hi]: the pivot is the median,
		// and the two ends stop both scans below.
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= pivot <= xs[i..hi], and anything strictly
		// between j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// less is sort.Float64s's order: ascending, with NaNs first.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// TimeSeries buckets (t, value) observations into fixed-width windows and
// reports the per-window mean — exactly the "average response time of
// file operations served in the past 3 minutes" presentation of Fig. 7.
type TimeSeries struct {
	width   float64
	buckets map[int64]*Running
}

// NewTimeSeries creates a series with the given bucket width (same unit
// as the observation timestamps; EDM uses seconds).
func NewTimeSeries(width float64) *TimeSeries {
	if width <= 0 {
		panic("metrics: non-positive TimeSeries width")
	}
	return &TimeSeries{width: width, buckets: make(map[int64]*Running)}
}

// Clone returns a deep copy of the series. ts is only read, and the copy
// shares no memory with it.
func (ts *TimeSeries) Clone() *TimeSeries {
	c := &TimeSeries{width: ts.width, buckets: make(map[int64]*Running, len(ts.buckets))}
	for k, r := range ts.buckets {
		cr := *r
		c.buckets[k] = &cr
	}
	return c
}

// Observe records value at time t.
func (ts *TimeSeries) Observe(t, value float64) {
	b := int64(math.Floor(t / ts.width))
	r := ts.buckets[b]
	if r == nil {
		r = &Running{}
		ts.buckets[b] = r
	}
	r.Observe(value)
}

// Point is one bucket of a time series.
type Point struct {
	Time  float64 // bucket start time
	Mean  float64
	Count int64
}

// Points returns the buckets in time order.
func (ts *TimeSeries) Points() []Point {
	keys := make([]int64, 0, len(ts.buckets))
	for k := range ts.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pts := make([]Point, len(keys))
	for i, k := range keys {
		r := ts.buckets[k]
		pts[i] = Point{Time: float64(k) * ts.width, Mean: r.Mean(), Count: r.Count()}
	}
	return pts
}
