// Package dispatch is the distributed sweep coordinator: it shards an
// experiment matrix into independent cell specs, fans them out over a
// fleet of edmd workers, and reassembles the results into the exact
// []experiment.Cell a local Matrix run would have produced. Its Client
// speaks /v1 through server.Client and adds only the coordinator's
// policy: retries, polling, and checkpoint stashing.
//
// The design leans on one property of the simulation: a cell's result
// is a pure function of its CellSpec. That makes every fault-tolerance
// trick safe — a cell can be retried on the same worker, reassigned to
// another after a crash, hedged while a straggler still runs, or
// executed locally when the whole fleet is down, and the first result
// to arrive is *the* result. Completions are deduplicated by the
// spec's key, so a hedged or reassigned duplicate that finishes late
// is discarded, and the merge is deterministic: cells are emitted in
// the input spec order with results keyed by spec, never by arrival.
//
// Fault model, in escalating order:
//
//   - transient faults (connection refused/reset, 5xx, 429): the
//     Client retries with capped exponential backoff + jitter,
//     honouring Retry-After on 429/503;
//   - worker faults (retries exhausted, worker draining or dead, or a
//     worker that restarted and answers 404 for a job it accepted):
//     the Pool marks the worker unhealthy, reassigns its in-flight
//     cells to the rest of the fleet, and re-probes /healthz until the
//     worker returns;
//   - stragglers: a cell in flight longer than HedgeAfter is launched
//     a second time elsewhere, first completion wins;
//   - fleet loss (no workers configured, none healthy): cells run
//     locally through experiment.RunCell — same specs, same results,
//     just slower.
package dispatch

import (
	"errors"
	"time"

	"edm"
	"edm/internal/experiment"
)

// ErrUnavailable tags a worker-level failure: the worker could not be
// reached, kept failing after retries, or is draining. The coordinator
// reacts by marking the worker unhealthy and reassigning the cell;
// test with errors.Is.
var ErrUnavailable = errors.New("dispatch: worker unavailable")

// ErrRunFailed tags a run the worker executed and reported as failed.
// Simulations are deterministic, so the same spec fails everywhere —
// the coordinator records the failure instead of reassigning it.
var ErrRunFailed = errors.New("dispatch: run failed")

// ErrExhausted tags a cell that used up its execution attempts without
// producing a result.
var ErrExhausted = errors.New("dispatch: cell attempts exhausted")

// CellRun is one cell's final outcome plus the story of how it got
// there — which executor's result was accepted, how many executions
// were launched, and whether failover machinery fired.
type CellRun struct {
	Spec   experiment.CellSpec
	Result *edm.Result
	Err    error

	// Worker names the executor whose result was accepted: a worker's
	// base URL, or "local" for the fallback path.
	Worker string
	// Launches counts executions started for this cell, including the
	// original, reassignments and hedges (1 = the happy path).
	Launches int
	// Reassigned counts executions abandoned because their worker
	// became unavailable; Hedged reports a straggler duplicate was
	// launched; Discarded counts duplicate completions thrown away.
	Reassigned int
	Hedged     bool
	Discarded  int
	// Resumed counts executions that continued from a stashed
	// checkpoint frame instead of replaying the cell from scratch
	// (only possible with Config.CheckpointEvery > 0).
	Resumed int
	// Duration is first launch to accepted completion.
	Duration time.Duration
}

// Merge reassembles figure-table cells from completed runs, in input
// order. The slice plugs straight into experiment.Fig5/Fig6/Fig8 —
// when every run succeeded, the tables render byte-identical to a
// local experiment.Matrix of the same Options.
func Merge(runs []CellRun) []experiment.Cell {
	cells := make([]experiment.Cell, len(runs))
	for i, r := range runs {
		cells[i] = r.Spec.Cell(r.Result, r.Err)
	}
	return cells
}
