package snapshot

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"edm/internal/cluster"
	"edm/internal/sim"
	"edm/internal/trace"
)

func tinyTrace(t testing.TB, seed uint64) *trace.Trace {
	t.Helper()
	p, ok := trace.LookupProfile("home02")
	if !ok {
		t.Fatal("home02 missing")
	}
	tr, err := trace.Generate(p.Scaled(400), seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig(osds int) cluster.Config {
	return cluster.Config{
		OSDs:           osds,
		Groups:         4,
		ObjectsPerFile: 4,
		WarmupDisabled: true,
		Seed:           1,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"Workload":"home02"}`)
	snap := Capture(cl, spec, []byte("tracebytes"))

	var buf bytes.Buffer
	if err := snap.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLast(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fired != snap.Fired || got.Now != snap.Now || got.FormatVersion != Version {
		t.Fatalf("coordinates changed: %+v vs %+v", got, snap)
	}
	if !bytes.Equal(got.SpecJSON, spec) || !bytes.Equal(got.TraceData, []byte("tracebytes")) {
		t.Fatal("spec/trace payload changed in round trip")
	}
	if diffs := got.State.Diff(snap.State); len(diffs) > 0 {
		t.Fatalf("state changed in round trip: %v", diffs)
	}
	// The cluster has not moved, so verification must hold.
	if err := Verify(cl, got); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureIsReadOnly(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	a := Capture(cl, nil, nil)
	b := Capture(cl, nil, nil)
	if diffs := b.State.Diff(a.State); len(diffs) > 0 {
		t.Fatalf("capturing twice changed the state: %v", diffs)
	}
}

func TestReadLastPicksNewestFrame(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		snap := Capture(cl, nil, nil)
		snap.Fired = uint64(100 * (i + 1)) // distinguish frames
		if err := snap.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLast(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fired != 300 {
		t.Fatalf("ReadLast returned frame at event %d, want 300", got.Fired)
	}
}

func TestReadLastToleratesTornTail(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	good := Capture(cl, nil, nil)
	frame, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-write leaves a prefix of the next frame.
	torn := append(append([]byte{}, frame...), frame[:len(frame)/3]...)
	got, err := ReadLast(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should fall back to the previous frame: %v", err)
	}
	if got.Fired != good.Fired {
		t.Fatalf("wrong frame recovered")
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Capture(cl, nil, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte){
		"payload bit flip": func(b []byte) { b[len(b)-1] ^= 1 },
		"seal bit flip":    func(b []byte) { b[20] ^= 1 },
		"bad magic":        func(b []byte) { b[0] = 'X' },
		"future version":   func(b []byte) { b[8] = 99 },
		"previous version": func(b []byte) { b[8] = Version - 1 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte{}, frame...)
			mutate(bad)
			if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
			if _, err := ReadLast(bytes.NewReader(bad)); !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("ReadLast = %v, want ErrNoSnapshot", err)
			}
		})
	}
}

func TestReadLastEmptyStream(t *testing.T) {
	if _, err := ReadLast(bytes.NewReader(nil)); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty stream: %v, want ErrNoSnapshot", err)
	}
}

// TestResumeByteIdentical is the subsystem's core promise at the
// cluster level: run A checkpoints mid-flight; run B rebuilds from
// scratch, fast-forwards to a checkpoint, verifies against the sealed
// capture, and continues — and the two Results serialize to the same
// bytes.
func TestResumeByteIdentical(t *testing.T) {
	cfg := testConfig(8)
	cfg.CheckpointEvery = 5000
	ctx := context.Background()

	var snaps []*Snapshot
	clA, err := cluster.New(cfg, tinyTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	clA.SetCheckpoint(func(now sim.Time) error {
		snaps = append(snaps, Capture(clA, nil, nil))
		return nil
	})
	resA, err := clA.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d checkpoints taken; lower the cadence", len(snaps))
	}
	snap := snaps[len(snaps)/2]

	clB, err := cluster.New(cfg, tinyTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := clB.FastForward(ctx, snap.Fired); err != nil {
		t.Fatal(err)
	}
	if err := Verify(clB, snap); err != nil {
		t.Fatal(err)
	}
	resB, err := clB.ContinueContext(ctx)
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(resA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed result differs from uninterrupted run:\n  uninterrupted: %s\n  resumed:       %s", a, b)
	}

	// The continuation must also checkpoint on the original cadence.
	clC, err := cluster.New(cfg, tinyTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var resumedSnaps []*Snapshot
	clC.SetCheckpoint(func(now sim.Time) error {
		resumedSnaps = append(resumedSnaps, Capture(clC, nil, nil))
		return nil
	})
	if err := clC.FastForward(ctx, snap.Fired); err != nil {
		t.Fatal(err)
	}
	if _, err := clC.ContinueContext(ctx); err != nil {
		t.Fatal(err)
	}
	wantTail := snaps[len(snaps)/2:]
	if len(resumedSnaps) == 0 || len(resumedSnaps) > len(wantTail) {
		t.Fatalf("continuation took %d checkpoints, original tail had %d", len(resumedSnaps), len(wantTail))
	}
	for i, rs := range resumedSnaps {
		orig := wantTail[len(wantTail)-len(resumedSnaps)+i]
		if rs.Fired != orig.Fired {
			t.Fatalf("continuation checkpoint %d at event %d, original at %d", i, rs.Fired, orig.Fired)
		}
		if diffs := rs.State.Diff(orig.State); len(diffs) > 0 {
			t.Fatalf("continuation checkpoint at event %d diverges: %v", rs.Fired, diffs)
		}
	}
}

func BenchmarkCheckpointSave(b *testing.B) {
	tr := tinyTrace(b, 1)
	cl, err := cluster.New(testConfig(8), tr)
	if err != nil {
		b.Fatal(err)
	}
	spec := json.RawMessage(`{"Workload":"home02","OSDs":8}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := Capture(cl, spec, nil).Encode()
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
	}
}
