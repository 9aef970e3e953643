package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"edm/internal/sim"
)

// SinkConfig carries the CLI-facing telemetry options shared by edmsim
// and edmbench (-telemetry-dir, -telemetry-events, -telemetry-sample).
type SinkConfig struct {
	// Dir is the output directory; empty disables telemetry entirely.
	Dir string
	// Events filters the event log by class (ParseClasses syntax;
	// empty means all).
	Events string
	// Sample is the metric-snapshot cadence in virtual time, passed to
	// edm.WithMetrics (zero takes its default, 30 seconds).
	Sample sim.Time
}

// Enabled reports whether an output directory was requested.
func (c SinkConfig) Enabled() bool { return c.Dir != "" }

// Sink buffers one run's telemetry and flushes it to files. Attach
// Tracer and Registry to the run (edm.WithTelemetry, edm.WithMetrics),
// run, then Flush.
type Sink struct {
	dir   string
	label string

	Tracer   *Tracer
	Registry *Registry
}

// NewSink builds a sink under the configured directory, creating it if
// needed. label distinguishes runs sharing the directory ("" for a
// single-run tool); it becomes the file-name prefix. A disabled config
// returns (nil, nil) — callers nil-check the sink.
func (c SinkConfig) NewSink(label string) (*Sink, error) {
	if !c.Enabled() {
		return nil, nil
	}
	mask, err := ParseClasses(c.Events)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Sink{
		dir:      c.Dir,
		label:    sanitizeLabel(label),
		Tracer:   NewTracer(mask),
		Registry: NewRegistry(),
	}, nil
}

// sanitizeLabel maps a run label to a safe file-name prefix.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-' || r == '_' || r == '.':
			return r
		}
		return '_'
	}, label)
}

func (s *Sink) path(name string) string {
	if s.label != "" {
		name = s.label + "." + name
	}
	return filepath.Join(s.dir, name)
}

// Files returns the paths Flush writes, in write order.
func (s *Sink) Files() []string {
	return []string{s.path("events.ndjson"), s.path("snapshots.csv"), s.path("trace.json")}
}

// Flush writes the buffered events and snapshots: an NDJSON event log,
// a CSV metric-snapshot series, and a Chrome trace_event file for
// chrome://tracing / Perfetto.
func (s *Sink) Flush() error {
	events := s.Tracer.Events()
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(s.path(name))
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: writing %s: %w", s.path(name), err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("telemetry: closing %s: %w", s.path(name), err)
		}
		return nil
	}
	if err := write("events.ndjson", func(f *os.File) error { return WriteNDJSON(f, events) }); err != nil {
		return err
	}
	if err := write("snapshots.csv", func(f *os.File) error { return WriteSnapshotsCSV(f, s.Registry) }); err != nil {
		return err
	}
	return write("trace.json", func(f *os.File) error { return WriteChromeTrace(f, events) })
}
