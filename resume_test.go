package edm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"edm/internal/snapshot"
	"edm/internal/telemetry"
)

// TestResumeByteIdenticalOutput is the subsystem's end-to-end promise:
// a run checkpointed mid-flight and resumed in a fresh "process"
// (fresh cluster, fresh recorder) produces byte-identical NDJSON and a
// byte-identical serialized Result compared to the uninterrupted run.
func TestResumeByteIdenticalOutput(t *testing.T) {
	ctx := context.Background()
	spec := quickSpec(PolicyHDF)
	spec.CheckpointEvery = 4_000

	var ckpts bytes.Buffer
	recA := telemetry.NewTracer(telemetry.ClassAll)
	resA, err := Run(ctx, spec, WithCheckpoint(&ckpts, 0), WithTelemetry(recA))
	if err != nil {
		t.Fatal(err)
	}
	if ckpts.Len() == 0 {
		t.Fatal("no checkpoint frames written")
	}

	recB := telemetry.NewTracer(telemetry.ClassAll)
	resB, err := Resume(ctx, bytes.NewReader(ckpts.Bytes()), WithTelemetry(recB))
	if err != nil {
		t.Fatal(err)
	}

	ja, _ := json.Marshal(resA)
	jb, _ := json.Marshal(resB)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("resumed result differs:\n  uninterrupted: %s\n  resumed:       %s", ja, jb)
	}

	var ndA, ndB bytes.Buffer
	if err := telemetry.WriteNDJSON(&ndA, recA.Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteNDJSON(&ndB, recB.Events()); err != nil {
		t.Fatal(err)
	}
	if ndA.Len() == 0 {
		t.Fatal("uninterrupted run recorded no events")
	}
	if !bytes.Equal(ndA.Bytes(), ndB.Bytes()) {
		t.Fatalf("resumed NDJSON differs (%d vs %d bytes)", ndA.Len(), ndB.Len())
	}
}

// TestResumeExplicitTrace pins the trace round-trip: a spec with an
// explicit (non-generated) trace embeds the encoded trace in each
// frame, and Resume replays it rather than regenerating a workload.
func TestResumeExplicitTrace(t *testing.T) {
	ctx := context.Background()
	base := quickSpec(PolicyBaseline)
	tr, err := BuildTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := base
	spec.Workload = ""
	spec.Trace = tr

	var ckpts bytes.Buffer
	resA, err := Run(ctx, spec, WithCheckpoint(&ckpts, 4_000))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Resume(ctx, bytes.NewReader(ckpts.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(resA)
	jb, _ := json.Marshal(resB)
	if !bytes.Equal(ja, jb) {
		t.Fatal("explicit-trace resume diverged from uninterrupted run")
	}
}

// TestResumeRejectsForeignCheckpoint pins the fail-loudly contract: a
// checkpoint whose sealed state cannot be reproduced (here, a frame
// whose embedded spec was swapped for a different seed) must error
// with a state diff, not continue silently.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	ctx := context.Background()
	spec := quickSpec(PolicyHDF)

	var ckpts bytes.Buffer
	if _, err := Run(ctx, spec, WithCheckpoint(&ckpts, 4_000)); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadLast(bytes.NewReader(ckpts.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var embedded Spec
	if err := json.Unmarshal(snap.SpecJSON, &embedded); err != nil {
		t.Fatal(err)
	}
	embedded.Seed = 99 // a different run entirely
	snap.SpecJSON, err = json.Marshal(embedded)
	if err != nil {
		t.Fatal(err)
	}
	var tampered bytes.Buffer
	if err := snap.EncodeTo(&tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ctx, bytes.NewReader(tampered.Bytes())); err == nil {
		t.Fatal("resume from a foreign checkpoint should fail verification")
	}
}

// TestResumeNoSnapshot pins the error for an empty stream.
func TestResumeNoSnapshot(t *testing.T) {
	if _, err := Resume(context.Background(), bytes.NewReader(nil)); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("Resume on empty stream = %v, want ErrNoSnapshot", err)
	}
}

// TestCheckpointTriggerWritesDemandFrame exercises the on-demand path:
// with a trigger armed before the run starts, an extra frame appears
// even when the cadence alone would have produced none, and the run's
// result is unchanged (capture is read-only).
func TestCheckpointTriggerWritesDemandFrame(t *testing.T) {
	ctx := context.Background()
	spec := quickSpec(PolicyBaseline)

	plain, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	trig := &CheckpointTrigger{}
	trig.Request() // pre-armed: consumed at the first poll point
	var ckpts bytes.Buffer
	// Cadence far beyond the run length: only the demand frame appears.
	res, err := Run(ctx, spec, WithCheckpoint(&ckpts, 1<<40), WithCheckpointTrigger(trig))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadLast(bytes.NewReader(ckpts.Bytes()))
	if err != nil {
		t.Fatalf("demand frame missing: %v", err)
	}
	if snap.Fired == 0 {
		t.Fatal("demand frame captured no progress")
	}
	jp, _ := json.Marshal(plain)
	jr, _ := json.Marshal(res)
	if !bytes.Equal(jp, jr) {
		t.Fatal("checkpointing perturbed the run result")
	}

	// And the demand frame is itself resumable.
	resumed, err := Resume(ctx, bytes.NewReader(ckpts.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	jres, _ := json.Marshal(resumed)
	if !bytes.Equal(jp, jres) {
		t.Fatal("resume from demand frame diverged")
	}
}

// TestWithCheckAudits pins that WithCheck wires the event-stream
// checker end to end and passes on a healthy run.
func TestWithCheckAudits(t *testing.T) {
	if _, err := Run(context.Background(), quickSpec(PolicyHDF), WithCheck()); err != nil {
		t.Fatal(err)
	}
}

// TestFramesOfAnEarlierBuild pins the frame format across versions of
// the code. testdata/home02-hdf-s80-seed7.ckpt holds four frames, at
// events 20000 to 80000 (the remapping table is empty in the first two
// and holds the midpoint shuffle's entries in the last two), and
// .result.json the uninterrupted result, both written by an older
// edmsim with
//
//	edmsim -workload home02 -scale 80 -policy hdf -seed 7 \
//	    -checkpoint-every 20000 -checkpoint home02-hdf-s80-seed7.ckpt -json
//
// Resuming from each frame must reproduce the result bytes, and the
// same run now must write the same frames.
func TestFramesOfAnEarlierBuild(t *testing.T) {
	ctx := context.Background()
	stream, err := os.ReadFile("testdata/home02-hdf-s80-seed7.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/home02-hdf-s80-seed7.result.json")
	if err != nil {
		t.Fatal(err)
	}
	indented := func(res *Result) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	// A frame is a 48-byte header, whose bytes 12..16 give the payload
	// length, and the payload. Cutting the stream after a frame makes
	// that frame the one Resume reads.
	frames := 0
	for end := 0; end < len(stream); frames++ {
		end += 48 + int(binary.LittleEndian.Uint32(stream[end+12:]))
		res, err := Resume(ctx, bytes.NewReader(stream[:end]))
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if got := indented(res); !bytes.Equal(got, want) {
			t.Fatalf("resumed from frame %d:\n%s\nwant:\n%s", frames, got, want)
		}
	}
	if frames != 4 {
		t.Fatalf("stream holds %d frames, want 4", frames)
	}

	snap, err := snapshot.ReadLast(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(snap.SpecJSON, &spec); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	res, err := Run(ctx, spec, WithCheckpoint(&again, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), stream) {
		t.Fatalf("the run writes %d bytes of frames that differ from the %d checked in", again.Len(), len(stream))
	}
	if got := indented(res); !bytes.Equal(got, want) {
		t.Fatalf("the run's result differs from the checked-in one:\n%s", got)
	}
}
