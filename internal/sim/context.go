package sim

import (
	"context"
	"fmt"
	"math"
)

// CancelCheckInterval is the number of events RunContext fires between
// context-cancellation polls. The poll is a single non-blocking select
// on a prefetched Done channel — no allocation, no syscall — so the
// interval trades only poll frequency against branch overhead: at the
// engine's ~20ns event cycle a check lands every ~80µs of wall time,
// which bounds how stale a cancellation can go unobserved.
const CancelCheckInterval = 4096

// RunContext executes events until the queue drains or ctx is
// cancelled, polling for cancellation every CancelCheckInterval events.
// It returns nil when the queue drained and ctx.Err() when the run was
// interrupted; in the latter case the clock stops at the last fired
// event and the remaining queue is left intact (callers that resume
// must do so with the same engine).
//
// A ctx that can never be cancelled (context.Background, context.TODO)
// takes the same drain loop as Run when no hook is armed, so
// the zero-alloc steady-state benchmarks hold for both entry points.
func (e *Engine) RunContext(ctx context.Context) error {
	e.guard()
	defer func() { e.running = false }()
	return e.runLoop(ctx, noTarget)
}

// RunContextFired executes events until exactly target events have been
// fired since the engine's creation (Fired() == target), the queue
// drains, or ctx is cancelled. Draining before reaching the target is
// an error — the caller asked to replay to a position that does not
// exist, which on checkpoint restore means the snapshot and the rebuilt
// model disagree. Reaching the target leaves the remaining queue intact
// so the run can be continued with RunContext on the same engine.
func (e *Engine) RunContextFired(ctx context.Context, target uint64) error {
	e.guard()
	defer func() { e.running = false }()
	if e.fired > target {
		return fmt.Errorf("sim: already fired %d events, past target %d", e.fired, target)
	}
	return e.runLoop(ctx, target)
}

// noTarget is RunContext's target: a fired count no run reaches.
const noTarget = math.MaxUint64

// runLoop is the shared body of RunContext and RunContextFired: it
// stops once target events have fired, or drains the queue short of it
// (an error unless target is noTarget). The sampler and checkpoint
// hooks, when armed, run between events.
func (e *Engine) runLoop(ctx context.Context, target uint64) error {
	done := ctx.Done()
	ck := e.ck
	if done == nil && ck == nil && e.smp == nil && target == noTarget {
		for e.Step() {
		}
		return nil
	}
	if ck != nil {
		ck.left = ck.gap(e.fired) // events may have fired outside a hooked loop
	}
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		for i := 0; i < CancelCheckInterval; i++ {
			if e.fired >= target {
				return nil
			}
			if e.smp != nil {
				e.sample()
			}
			if !e.Step() {
				if target != noTarget {
					return fmt.Errorf("sim: queue drained after %d events, short of target %d", e.fired, target)
				}
				return nil
			}
			if ck != nil {
				if ck.left--; ck.left != 0 {
					continue
				}
				ck.left = ck.gap(e.fired)
				if err := ck.fn(e.now); err != nil {
					return fmt.Errorf("sim: checkpoint hook at %v (event %d): %w", e.now, e.fired, err)
				}
			}
		}
	}
}
