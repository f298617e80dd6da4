package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test if it never does: the leak detector for the
// cancellation paths.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after cancellation: %d now vs %d at start", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelStopsComputeLoop cancels a run whose ranks spin in an infinite
// compute loop — no blocking operations at all — and checks that every rank
// goroutine actually stops and the run error names the cause.
func TestCancelStopsComputeLoop(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once chan struct{} = started
	go func() {
		<-started
		cancel()
	}()
	res, err := RunContext(ctx, 4, Cost{GammaT: 1e-9}, func(r *Rank) error {
		for {
			r.Compute(1000)
			// Signal only after rank 0's first Compute has been counted,
			// so the cancel cannot land before any flops are recorded.
			if r.ID() == 0 && once != nil {
				close(once)
				once = nil
			}
		}
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result; partial stats expected")
	}
	if res.PerRank[0].Flops == 0 {
		t.Error("rank 0 recorded no flops before cancellation")
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedRecv pins the cancellation contract for a run
// that can make no further progress: virtual-time verdicts resolve first.
// Every rank blocks in a mutual Recv, so the engine reaches quiescence at
// once and the run ends in a DeadlockError — a cancel arriving 20 ms later
// finds nothing left to abort.
func TestCancelReleasesBlockedRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := RunContext(ctx, 2, Cost{}, func(r *Rank) error {
		r.Recv((r.ID() + 1) % r.P()) // mutual recv: a hard deadlock
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("mutual Recv under a context: want DeadlockError, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("deadlock verdict reported as cancellation: %v", err)
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedTimedRecv pins the same contract for timers:
// two ranks in a mutual RecvTimeout with a huge virtual timeout go
// quiescent at once, so the timers fire and the run completes cleanly in
// virtual time, untouched by the later cancel. Rank 0's timer fires first
// (ties go to the lower id); its reply is stamped at the deadline, so it
// cannot beat rank 1's timer either.
func TestCancelReleasesBlockedTimedRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	const timeout = 1e12
	res, err := RunContext(ctx, 2, Cost{}, func(r *Rank) error {
		peer := 1 - r.ID()
		if _, out := r.RecvTimeout(peer, timeout); out != RecvTimedOut {
			return fmt.Errorf("rank %d: RecvTimeout = %v, want %v", r.ID(), out, RecvTimedOut)
		}
		r.Send(peer, []float64{1})
		r.Recv(peer)
		return nil
	})
	if err != nil {
		t.Fatalf("mutual RecvTimeout under a context: want the timers to fire, got %v", err)
	}
	for id, s := range res.PerRank {
		if s.Time != timeout || s.WaitTime != timeout {
			t.Errorf("rank %d: clock %g wait %g, want both at the %g deadline", id, s.Time, s.WaitTime, float64(timeout))
		}
	}
	waitGoroutines(t, base)
}

// TestCancelAbortsEndlessPingPong is the other half of the contract:
// cancellation aborts runs that are still making progress. Two ranks
// ping-pong forever — never quiescent, so no virtual-time verdict can end
// the run — until the context is cancelled 20 ms in.
func TestCancelAbortsEndlessPingPong(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 2, Cost{AlphaT: 1e-6, BetaT: 1e-9}, func(r *Rank) error {
			peer := 1 - r.ID()
			msg := []float64{1}
			for {
				if r.ID() == 0 {
					r.Send(peer, msg)
					msg = r.Recv(peer)
				} else {
					msg = r.Recv(peer)
					r.Send(peer, msg)
				}
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the ping-pong run")
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedSend covers the deliver() blocking select: rank 0
// floods a pair whose 1-message buffer fills while rank 1 never receives.
func TestCancelReleasesBlockedSend(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 2, Cost{ChanCap: 1}, func(r *Rank) error {
			if r.ID() == 0 {
				for i := 0; i < 100; i++ {
					r.Send(1, []float64{1})
				}
				return nil
			}
			r.Recv(0) // receive once, then leave rank 0 blocked on the full buffer
			for {
				r.Compute(1000)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release rank blocked in Send")
	}
	waitGoroutines(t, base)
}

// TestCancelDeadline checks that a context deadline surfaces as
// context.DeadlineExceeded through the run error.
func TestCancelDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, 2, Cost{GammaT: 1e-9}, func(r *Rank) error {
		for {
			r.Compute(1000)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false, err = %v", err)
	}
}

// TestCancelErrorCollapsed checks that a cancelled run reports ONE run-level
// error, not one per rank, and that CancelledError is reachable for callers
// that care which ranks died.
func TestCancelErrorCollapsed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every rank aborts at its first op
	_, err := RunContext(ctx, 8, Cost{}, func(r *Rank) error {
		r.Compute(1)
		return nil
	})
	if err == nil {
		t.Fatal("pre-cancelled run returned nil error")
	}
	if got := len(errors.Join(err).Error()); got > 200 {
		t.Errorf("cancelled run error looks per-rank, not collapsed (%d bytes): %v", got, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
	}
}

// TestCancelRealErrorTakesPrecedence checks that a rank failing for a real
// reason is not masked when the same run is also cancelled afterwards.
func TestCancelRealErrorTakesPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sentinel := errors.New("real failure")
	failed := make(chan struct{})
	go func() {
		<-failed
		cancel()
	}()
	var fc chan struct{} = failed
	_, err := RunContext(ctx, 2, Cost{}, func(r *Rank) error {
		if r.ID() == 0 {
			if fc != nil {
				close(fc)
				fc = nil
			}
			return sentinel
		}
		for {
			r.Compute(1000)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("real rank error masked by cancellation: %v", err)
	}
}

// TestNoContextUnaffected pins the zero-cost path: a run without a context
// never arms a cancel watcher and must behave exactly as before.
func TestNoContextUnaffected(t *testing.T) {
	res, err := Run(2, Cost{}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1, 2, 3})
			return nil
		}
		got := r.Recv(0)
		if len(got) != 3 {
			t.Errorf("recv got %d words, want 3", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if res.PerRank[1].WordsRecv != 3 {
		t.Errorf("WordsRecv = %g, want 3", res.PerRank[1].WordsRecv)
	}
}
