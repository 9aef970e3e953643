package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

// A percentile is reported only with ten samples beyond its rank: the
// p90 needs 100 samples, the p50 20.
func TestPercentileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{150, 0.9, 135, true},
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},            // quantiles(range(1, 11), n=4)
		{seq(5), 1.5, 4.5},               // quantiles(range(1, 6), n=4)
		{[]float64{3, 1}, 0.5, 3.5},      // two samples extrapolate
		{[]float64{7, 7, 7, 7}, 7, 7},    // no spread
		{[]float64{1, 2, 4, 8}, 1.25, 7}, // quantiles([1, 2, 4, 8], n=4)
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
	if s := spread([]float64{1, 2, 4, 8}); s != (7-1.25)/3 {
		t.Errorf("spread = %v, want %v", s, (7-1.25)/3)
	}
}
