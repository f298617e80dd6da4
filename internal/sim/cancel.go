package sim

import (
	"context"
	"fmt"
)

// Real-time cancellation.
//
// A simulated run is CPU-bound real work. When the caller abandons the run
// — an HTTP client hangs up, a deadline expires, a sweep is interrupted —
// the ranks must actually stop, not keep burning cycles into a result
// nobody will read. Cost.Context threads a context.Context into the engine
// for exactly that:
//
//   - every instrumented operation (Compute, Send, Recv, SendRecv,
//     RecvTimeout, SendTimeout) checks a cancellation flag on entry, so a
//     rank in a compute loop aborts at its next op;
//   - every parked rank is woken with a cancel reason, so a rank waiting
//     on a peer that is still computing is released at once.
//
// The contract with the virtual-time verdicts is that they resolve first.
// The engine detects quiescence exactly and immediately, so a run that can
// make no further progress — a mutual Recv, a timed receive whose peer
// never sends — reaches its deadlock verdict or timer fire as soon as it
// gets there, with no real-time window in which a cancel could overtake
// it. Cancellation therefore only ever aborts runs that are still making
// progress.
//
// Cancellation unwinds each rank with a panic recovered by Run, never
// rewrites virtual clocks, and leaves the partial per-rank Stats in the
// Result. Run collapses the per-rank aborts into one error wrapping
// context.Cause(ctx), so errors.Is(err, context.Canceled) /
// context.DeadlineExceeded tells the caller why the run ended. A run
// without a context pays one atomic load per op.

// cancelPanic unwinds a rank whose run context was cancelled; Run recovers
// it and records a *CancelledError for the rank.
type cancelPanic struct{}

// CancelledError reports that one rank was aborted because Cost.Context was
// cancelled. Run collapses these into a single run-level error, so callers
// normally see that error (which wraps the same Cause) rather than this
// type; it is exported for completeness and for tests.
type CancelledError struct {
	// Rank is the aborted rank's id.
	Rank int
	// Cause is context.Cause of the run context at cancellation time.
	Cause error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("sim: rank %d aborted by run cancellation: %v", e.Rank, e.Cause)
}

// Unwrap exposes the context cause to errors.Is/errors.As.
func (e *CancelledError) Unwrap() error { return e.Cause }

// RunContext is Run with ctx bounding the run in real time; see
// Cost.Context for the semantics. It is a convenience for callers that do
// not otherwise customize the cost.
func RunContext(ctx context.Context, p int, cost Cost, fn func(r *Rank) error) (*Result, error) {
	cost.Context = ctx
	return Run(p, cost, fn)
}

// cancelCheck aborts the rank if the run context has been cancelled. It is
// called (via crashCheck) on entry to every instrumented operation.
func (r *Rank) cancelCheck() {
	if r.cluster.cancelled.Load() {
		panic(cancelPanic{})
	}
}

// markCancelled records ctx's cause and raises the cancellation flag; the
// flag store orders the cause write before any rank that observes it.
func (c *Cluster) markCancelled(ctx context.Context) {
	c.cancelCause = context.Cause(ctx)
	c.cancelled.Store(true)
}
