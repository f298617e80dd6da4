package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWatchdogDetectsMutualRecvDeadlock(t *testing.T) {
	start := time.Now()
	_, err := Run(2, zeroCost, func(r *Rank) error {
		// Classic mismatched point-to-point program: both ranks receive
		// first. Without deadlock detection this hangs forever.
		data := r.Recv(1 - r.ID())
		r.Send(1-r.ID(), data)
		return nil
	})
	if err == nil {
		t.Fatal("mutual Recv must be detected as deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	for _, want := range []string{"rank 0 waiting on rank 1", "rank 1 waiting on rank 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic must contain %q, got %v", want, err)
		}
	}
	// Quiescence is exact: the verdict needs no real-time window.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadlock verdict took %v, should be immediate", elapsed)
	}
}

func TestWatchdogDetectsSendToExitedRank(t *testing.T) {
	cost := zeroCost
	cost.ChanCap = 2
	_, err := Run(3, cost, func(r *Rank) error {
		switch r.ID() {
		case 0:
			// Rank 1 exits immediately; once the 2-slot buffer fills, the
			// third send can never complete.
			for i := 0; i < 3; i++ {
				r.Send(1, []float64{float64(i)})
			}
		case 2:
			// A bystander that keeps working: the verdict must wait for
			// quiescence and blame only rank 0's send.
			r.Compute(1e6)
		}
		return nil
	})
	if err == nil {
		t.Fatal("send to exited rank must error, not hang")
	}
	var de *DeadlockError
	if !errors.As(err, &de) || !de.PeerExited {
		t.Fatalf("expected a send-to-exited DeadlockError, got %v", err)
	}
	if de.Rank != 0 || de.Peer != 1 {
		t.Errorf("diagnostic should blame rank 0's send to rank 1, got %+v", de)
	}
	if !strings.Contains(err.Error(), "exited rank 1") {
		t.Errorf("error should name the exited rank: %v", err)
	}
}

func TestWatchdogConfigurableChanCap(t *testing.T) {
	// With a 1-slot buffer, a 2-message burst needs the receiver to drain;
	// here the receiver drains late but does drain, so the run completes.
	cost := zeroCost
	cost.ChanCap = 1
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 8; i++ {
				r.Send(1, []float64{float64(i)})
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond) // force the sender to park on the tiny buffer
		for i := 0; i < 8; i++ {
			if got := r.Recv(0); got[0] != float64(i) {
				t.Errorf("message %d arrived out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[1].MsgsRecv != 8 {
		t.Errorf("all 8 messages must arrive, got %g", res.PerRank[1].MsgsRecv)
	}
}

func TestWatchdogNoFalsePositiveDuringRealTimeWork(t *testing.T) {
	// Rank 0 does real wall-clock work while rank 1 waits in Recv. One
	// rank is live and running, so the cluster is not quiescent and no
	// deadlock may be declared, however long the work takes.
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 0 {
			time.Sleep(50 * time.Millisecond)
			r.Send(1, []float64{1})
			return nil
		}
		r.Recv(0)
		return nil
	})
	if err != nil {
		t.Fatalf("deadlock false positive: %v", err)
	}
}
