// Package snapshot implements versioned, digest-sealed checkpoints of
// a running simulation, and the framing that makes them safe to write
// from inside a run and read back after a crash.
//
// # Why snapshots replay instead of serializing the heap
//
// The engine's event queue holds live Go values — pooled completion
// records, closures, ticker thunks — that cannot be serialized and
// re-hydrated. But the simulation is deterministic: the full mid-run
// state is a pure function of (spec, number of fired events). A
// snapshot therefore stores the *replay coordinates* — the spec JSON
// (plus the encoded trace when the spec carried an explicit one) and
// the fired-event count — together with a digest-sealed capture of the
// complete cluster state at that point: one digest per section, nine
// for the cluster and four per OSD. Observers are in neither: they
// attach to a run outside its spec and take no event-queue slot.
//
// Restore rebuilds the cluster from the embedded spec, fast-forwards
// deterministically to the recorded event count, re-exports the state
// and hard-compares it against the sealed capture. Any divergence —
// a changed binary, a different trace, nondeterminism — fails loudly
// with a per-section diff instead of silently continuing from the
// wrong state. Resume cost is therefore proportional to the
// checkpoint's position in the run; what the checkpoint buys is not
// skipped work but a verified, byte-identical continuation.
//
// # Frame format
//
// A checkpoint stream is a sequence of self-delimiting frames:
//
//	magic "EDMSNAP1" (8 bytes)
//	format version   (uint32 little-endian)
//	payload length   (uint32 little-endian)
//	payload SHA-256  (32 bytes)
//	payload          (JSON-encoded Snapshot)
//
// The current format is version 3: the state capture is the replay
// position plus an ordered list of section digests. Version 2 sealed
// the same values under named fields, grouped differently, and version
// 1 with byte-wise digests; a capture of either can never verify
// against this binary. Decoders therefore refuse a frame of any other
// version at the header, as ErrCorrupt naming both versions, instead of
// replaying to its event count only to fail Verify with a divergence
// diff. edmd treats a refused frame file like a missing one: it removes
// it and restarts the job from event 0.
//
// Save appends one frame per checkpoint; ReadLast scans the stream and
// returns the last frame whose seal verifies, tolerating a truncated
// final frame (a SIGKILL mid-write loses at most the newest
// checkpoint, never the stream). Each frame is emitted with a single
// Write call so writers that replace rather than append (the edmd
// in-memory latest-frame store) see only whole frames.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"edm/internal/cluster"
)

// Version is the current frame format version. Decoders reject frames
// with a different version rather than guessing at field layouts —
// checkpoints do not outlive the binary that wrote them. Bump it
// whenever the payload layout or any section digest changes (version 2:
// word-wise fnvx digests; version 3: the position plus a list of
// section digests).
const Version = 3

var magic = [8]byte{'E', 'D', 'M', 'S', 'N', 'A', 'P', '1'}

const headerSize = 8 + 4 + 4 + sha256.Size

// MaxPayload bounds a frame's payload length; frames claiming more are
// corrupt (the bound also keeps fuzzed inputs from allocating wildly).
const MaxPayload = 1 << 28

// ErrNoSnapshot is returned by ReadLast when the stream contains no
// complete, verifiable frame.
var ErrNoSnapshot = errors.New("snapshot: no complete snapshot in stream")

// ErrCorrupt tags frames whose seal, magic or header fails to verify.
var ErrCorrupt = errors.New("snapshot: corrupt frame")

// Snapshot is one checkpoint: the replay coordinates plus the sealed
// state capture.
type Snapshot struct {
	// FormatVersion is the frame format version the snapshot was
	// written with.
	FormatVersion int `json:"format_version"`
	// SpecJSON is the edm.Spec (explicit trace extracted) that rebuilds
	// the cluster.
	SpecJSON json.RawMessage `json:"spec"`
	// TraceData is the trace.Encode serialization of the spec's
	// explicit trace; empty when the spec names a generated workload
	// (the generator is deterministic, so the spec suffices).
	TraceData []byte `json:"trace_data,omitempty"`
	// Fired is the replay position: the number of events the engine had
	// fired when the snapshot was taken.
	Fired uint64 `json:"fired"`
	// Now is the engine clock at the snapshot, in sim.Time units.
	Now int64 `json:"now"`
	// State seals the full cluster state at (Fired, Now).
	State *cluster.State `json:"state"`
}

// Capture exports the cluster's state into a Snapshot carrying the
// given replay coordinates. The export is read-only: taking a
// checkpoint never perturbs the run.
func Capture(c *cluster.Cluster, specJSON json.RawMessage, traceData []byte) *Snapshot {
	st := c.ExportState()
	return &Snapshot{
		FormatVersion: Version,
		SpecJSON:      specJSON,
		TraceData:     traceData,
		Fired:         st.Fired,
		Now:           st.Now,
		State:         st,
	}
}

// Encode serializes the snapshot as one frame.
func (s *Snapshot) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding payload: %w", err)
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("snapshot: payload %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	frame := make([]byte, headerSize+len(payload))
	copy(frame, magic[:])
	binary.LittleEndian.PutUint32(frame[8:], uint32(Version))
	binary.LittleEndian.PutUint32(frame[12:], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(frame[16:], sum[:])
	copy(frame[headerSize:], payload)
	return frame, nil
}

// EncodeTo writes the snapshot to w as one frame with a single Write
// call, so frame boundaries survive writers that treat each Write as a
// unit (appending files, latest-frame stores, pipes).
func (s *Snapshot) EncodeTo(w io.Writer) error {
	frame, err := s.Encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("snapshot: writing frame: %w", err)
	}
	return nil
}

// ReadLast scans a checkpoint stream and decodes the last frame whose
// seal verifies. A truncated or torn final frame is tolerated — the
// previous frame is returned — but a stream with no valid frame at all
// yields ErrNoSnapshot (wrapping ErrCorrupt when there were bytes that
// failed to verify).
func ReadLast(r io.Reader) (*Snapshot, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading stream: %w", err)
	}
	var last []byte
	rest := buf
	for len(rest) > 0 {
		payload, n, err := splitFrame(rest)
		if err != nil {
			if last != nil {
				break // torn tail after at least one good frame
			}
			return nil, fmt.Errorf("%w: %v", ErrNoSnapshot, err)
		}
		last = payload
		rest = rest[n:]
	}
	if last == nil {
		return nil, ErrNoSnapshot
	}
	return decodePayload(last)
}

// Decode decodes a single frame (the first in b). Fuzzing entry point
// and the unit used by ReadLast.
func Decode(b []byte) (*Snapshot, error) {
	payload, _, err := splitFrame(b)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

// splitFrame validates the frame at the head of b and returns its
// payload and total encoded size.
func splitFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < headerSize {
		return nil, 0, fmt.Errorf("%w: %d bytes, need %d-byte header", ErrCorrupt, len(b), headerSize)
	}
	if !bytes.Equal(b[:8], magic[:]) {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return nil, 0, fmt.Errorf("%w: format version %d, this binary reads %d", ErrCorrupt, v, Version)
	}
	plen := binary.LittleEndian.Uint32(b[12:])
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, plen)
	}
	if len(b) < headerSize+int(plen) {
		return nil, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(b)-headerSize, plen)
	}
	payload = b[headerSize : headerSize+int(plen)]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], b[16:16+sha256.Size]) {
		return nil, 0, fmt.Errorf("%w: payload seal mismatch", ErrCorrupt)
	}
	return payload, headerSize + int(plen), nil
}

func decodePayload(payload []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if s.FormatVersion != Version {
		return nil, fmt.Errorf("%w: payload version %d, this binary reads %d", ErrCorrupt, s.FormatVersion, Version)
	}
	if s.State == nil {
		return nil, fmt.Errorf("%w: payload has no state capture", ErrCorrupt)
	}
	return &s, nil
}

// Verify hard-compares a rebuilt, fast-forwarded cluster against the
// snapshot's sealed capture. A nil return proves the cluster is at the
// exact state the checkpoint sealed; otherwise the error lists every
// diverging section — the signature of a changed binary, a different
// trace, or nondeterminism, all of which make continuing unsafe.
func Verify(c *cluster.Cluster, s *Snapshot) error {
	got := c.ExportState()
	if diffs := got.Diff(s.State); len(diffs) > 0 {
		return fmt.Errorf("snapshot: resumed state diverges from checkpoint (event %d):\n  %s",
			s.Fired, strings.Join(diffs, "\n  "))
	}
	return nil
}
