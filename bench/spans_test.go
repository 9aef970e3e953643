package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is a span's duration less the union of its children's
// intervals inside it: overlapping children count once, and a child
// running past its parent's end is clipped.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "unit", ID: 1, Start: at(0), End: at(100)},
		{Name: "cluster.run", ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "cluster.run", ID: 3, Parent: 1, Start: at(30), End: at(60)}, // overlaps span 2
		{Name: "migration.plan", ID: 4, Parent: 2, Start: at(15), End: at(20)},
		{Name: "snapshot.capture", ID: 5, Parent: 1, Start: at(90), End: at(120)}, // outlives its parent
		{Name: "unit", ID: 6, Start: at(100), End: at(107)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"unit":             (100 - 50 - 10 + 7) * time.Millisecond, // [10,60] and [90,100] covered
		"cluster.run":      (25 + 30) * time.Millisecond,
		"migration.plan":   5 * time.Millisecond,
		"snapshot.capture": 30 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerAndChromeTrace(t *testing.T) {
	tr := &tracer{}
	unit := tr.begin("unit", 0)
	child := tr.begin("trace.generate", unit)
	tr.end(child)
	tr.end(unit)
	spans := tr.spans
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End.Before(spans[1].End) {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != doc.TraceEvents[0].Args["id"] ||
		doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Tid != 1 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
