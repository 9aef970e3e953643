package metrics

import (
	"reflect"
	"testing"
)

func TestClonesAreIndependent(t *testing.T) {
	h := &Histogram{}
	ts := NewTimeSeries(10)
	e := NewEWMA(0.5)
	for i, x := range []float64{3, 1, 2, 5, 4} {
		h.Observe(x)
		ts.Observe(float64(i*7), x)
		e.Observe(x)
	}
	hc, tc, ec := h.Clone(make([]float64, 0, 64)), ts.Clone(), *e // an EWMA copies by value
	if !reflect.DeepEqual(hc.Samples(), h.Samples()) || hc.Mean() != h.Mean() {
		t.Fatal("histogram clone differs")
	}
	if !reflect.DeepEqual(tc.Points(), ts.Points()) || ec != *e {
		t.Fatal("series or average clone differs")
	}
	samples, points, avg := append([]float64(nil), h.Samples()...), ts.Points(), *e
	hc.Observe(9)
	hc.Quantile(0.5) // reorders the clone's samples in place
	tc.Observe(3, 100)
	ec.Observe(100)
	if !reflect.DeepEqual(h.Samples(), samples) || !reflect.DeepEqual(ts.Points(), points) || *e != avg {
		t.Fatal("changing a clone changed its original")
	}
}
