package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it: its
// name, its interval and the span that caused it (0 for a unit span).
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Time
}

// tracer keeps spans in memory for the traced run; they are written out
// once, when the run ends. Spans are numbered from 1 in begin order. The
// units run one at a time, so one goroutine records every span.
type tracer struct{ spans []span }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: time.Now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Now() }

// add records a span whose interval is already known (reconstructed
// from timestamps a server reported).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: start, End: end})
	return len(t.spans)
}

// durations returns the durations of every span called name, in ms at
// the nominal host speed.
func durations(spans []span, name string, speed hostSpeed) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			d := s.End.Sub(s.Start)
			out = append(out, ms(d)*speed.scaleAt(s.Start.Add(d/2)))
		}
	}
	return out
}

// selfTimes sums each span name's self time: a span's duration minus
// the part of its interval that its children cover. Children may
// overlap each other (a served job's queue wait and execution overlap
// its submit and stream), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals inside p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it
// in Perfetto or chrome://tracing): one complete event per span, times
// in microseconds from the first span.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	raw, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
