package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runEnginePaths executes the same program three ways — as configured,
// with a no-op observer attached (which disables fast-forwarded
// collectives, so every message takes the event-by-event path), and on a
// single worker — and requires bitwise-identical Results: per-rank Stats
// structs compare with == (float64 equality, no tolerance), ActivePairs
// and error text must match. It returns the as-configured result.
func runEnginePaths(t *testing.T, p int, cost Cost, fn func(r *Rank) error) *Result {
	t.Helper()
	ref, refErr := Run(p, cost, fn)
	slow := cost
	slow.Observers = append(append([]Observer(nil), cost.Observers...), nopObserver{})
	one := cost
	one.Workers = 1
	for _, leg := range []struct {
		name string
		cost Cost
	}{{"slow path", slow}, {"Workers=1", one}} {
		res, err := Run(p, leg.cost, fn)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%s: error mismatch: reference=%v %s=%v", leg.name, refErr, leg.name, err)
		}
		if refErr != nil && refErr.Error() != err.Error() {
			t.Fatalf("%s: error text mismatch:\n  reference: %v\n  %s: %v", leg.name, refErr, leg.name, err)
		}
		if ref == nil || res == nil {
			continue
		}
		if ref.ActivePairs != res.ActivePairs {
			t.Errorf("%s: ActivePairs: reference=%d got=%d", leg.name, ref.ActivePairs, res.ActivePairs)
		}
		for i := range ref.PerRank {
			if ref.PerRank[i] != res.PerRank[i] {
				t.Errorf("%s: rank %d stats differ:\n  reference: %+v\n  got:       %+v",
					leg.name, i, ref.PerRank[i], res.PerRank[i])
			}
		}
	}
	return ref
}

func TestRuntimeValidation(t *testing.T) {
	cost := zeroCost
	cost.Workers = -1
	if _, err := NewCluster(2, cost); err == nil {
		t.Error("negative worker count must be rejected")
	}
	cost = zeroCost
	cost.ChanCap = -1
	if _, err := NewCluster(2, cost); err == nil {
		t.Error("negative queue capacity must be rejected")
	}
}

func TestEventBackendSendRecv(t *testing.T) {
	res, err := Run(2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1, 2, 3})
		} else {
			got := r.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[0].WordsSent != 3 || res.PerRank[0].MsgsSent != 1 {
		t.Errorf("sender counters: %+v", res.PerRank[0])
	}
	if res.PerRank[1].Time != res.PerRank[0].Time {
		t.Errorf("receiver clock %g != sender clock %g",
			res.PerRank[1].Time, res.PerRank[0].Time)
	}
}

// TestEventBackendBackpressure fills a bounded mailbox so the sender must
// park on a full queue and be woken by the receiver's dequeues.
func TestEventBackendBackpressure(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 2
	runEnginePaths(t, 2, cost, func(r *Rank) error {
		const n = 20
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, []float64{float64(i)})
			}
		} else {
			r.Compute(50) // let the queue fill first
			for i := 0; i < n; i++ {
				got := r.Recv(0)
				if got[0] != float64(i) {
					return errors.New("out-of-order delivery")
				}
			}
		}
		return nil
	})
}

// TestEventBackendCollectivesIdentical drives every collective with an
// observer attached (forcing the engine down its event-by-event slow path)
// on the default pool and on one worker, and demands bitwise-identical
// Results.
func TestEventBackendCollectivesIdentical(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8} {
		cost := unitCost
		cost.Observers = []Observer{nopObserver{}}
		runEnginePaths(t, p, cost, collectiveTour)
	}
}

// TestEventBackendFastForwardIdentical runs the same tour with no observer,
// fault plan, or context, so the engine takes the fast-forward path, and
// requires Results bitwise identical to the event-by-event slow path.
func TestEventBackendFastForwardIdentical(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8, 16} {
		runEnginePaths(t, p, unitCost, collectiveTour)
	}
}

// nopObserver exists only to disqualify the fast-forward path.
type nopObserver struct{}

func (nopObserver) OnCompute(int, Segment)       {}
func (nopObserver) OnSend(int, Segment)          {}
func (nopObserver) OnRecv(int, Segment)          {}
func (nopObserver) OnPhase(int, string, float64) {}
func (nopObserver) OnFault(FaultEvent)           {}
func (nopObserver) OnCrash(CrashEvent)           {}
func (nopObserver) OnDeadlock(DeadlockEvent)     {}
func (nopObserver) OnTimer(TimerEvent)           {}

// collectiveTour exercises every primitive and composite collective plus
// point-to-point traffic in one program.
func collectiveTour(r *Rank) error {
	w := r.World()
	p := w.Size()
	me := float64(r.ID())
	r.Compute(10 * (me + 1)) // stagger the clocks

	data := []float64{me, me + 1, me + 2}
	data = w.Shift(data, 1)
	_ = w.Bcast(0, []float64{me, 42})
	_ = w.Reduce(p-1, data, OpSum)
	_ = w.AllReduce([]float64{me}, OpSum)
	_ = w.AllGather([]float64{me, -me})
	vec := make([]float64, 2*p)
	for i := range vec {
		vec[i] = me*100 + float64(i)
	}
	_ = w.ReduceScatter(vec, OpSum)
	_ = w.AllToAll(vec)
	_ = w.AllToAllTree(vec)
	w.Barrier()
	_ = w.Gather(0, []float64{me})
	if r.ID() == 0 {
		root := make([]float64, p)
		for i := range root {
			root[i] = float64(i * i)
		}
		_ = w.Scatter(0, root)
	} else {
		_ = w.Scatter(0, nil)
	}
	// Point-to-point after the collectives: ffSeq alignment must survive.
	data = w.Shift(data, p-1)
	return nil
}

// TestEventBackendSplitIdentical runs collectives on subcommunicators so
// fast-forward rendezvous keys must separate memberships.
func TestEventBackendSplitIdentical(t *testing.T) {
	runEnginePaths(t, 8, unitCost, func(r *Rank) error {
		w := r.World()
		sub, err := w.Split(r.ID()%2, r.ID())
		if err != nil {
			return err
		}
		me := float64(r.ID())
		_ = sub.AllReduce([]float64{me, me}, OpSum)
		_ = sub.Bcast(0, []float64{me})
		_ = w.AllReduce([]float64{me}, OpMax)
		_ = sub.AllGather([]float64{me})
		w.Barrier()
		return nil
	})
}

// TestEventBackendMixedP2PAndCollectives interleaves point-to-point sends
// with collectives, including a message from the conductor-designate
// (member 0) that must not be mistaken for a rendezvous wake.
func TestEventBackendMixedP2PAndCollectives(t *testing.T) {
	runEnginePaths(t, 4, unitCost, func(r *Rank) error {
		w := r.World()
		if r.ID() == 0 {
			r.Compute(5)
			r.Send(3, []float64{7}) // lands while 3 may be parked in Bcast
		}
		got := w.Bcast(0, []float64{float64(r.ID())})
		if got[0] != 0 {
			return errors.New("bad bcast payload")
		}
		if r.ID() == 3 {
			if m := r.Recv(0); m[0] != 7 {
				return errors.New("bad p2p payload")
			}
		}
		w.Barrier()
		return nil
	})
}

func TestEventBackendDeadlockDetection(t *testing.T) {
	_, err := Run(2, unitCost, func(r *Rank) error {
		// Both ranks wait on each other; nobody ever sends.
		r.Recv(1 - r.ID())
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if de.PeerExited {
		t.Error("plain deadlock misreported as peer exit")
	}
}

func TestEventBackendRecvFromExitedPeer(t *testing.T) {
	fn := func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1) // rank 1 exits cleanly without sending
		}
		return nil
	}
	runEnginePaths(t, 2, unitCost, fn)
	if _, err := Run(2, unitCost, fn); err == nil || !strings.Contains(err.Error(), "exited without sending") {
		t.Errorf("expected an exited-peer error naming the clean exit, got %v", err)
	}
}

func TestEventBackendSendToExitedPeer(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 1
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1})
			r.Send(1, []float64{2}) // queue full, peer gone: must not hang
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !de.PeerExited {
		t.Error("send-to-exited not flagged PeerExited")
	}
}

func TestEventBackendRecvTimeout(t *testing.T) {
	runEnginePaths(t, 2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			// Nothing arrives from 1 until well past the deadline.
			got, out := r.RecvTimeout(1, 500)
			if out != RecvTimedOut || got != nil {
				return errors.New("expected RecvTimedOut")
			}
			if m, out2 := r.RecvTimeout(1, 10000); out2 != RecvOK || m[0] != 9 {
				return errors.New("expected late message to arrive")
			}
		} else {
			r.Compute(2000)
			r.Send(0, []float64{9})
		}
		return nil
	})
}

func TestEventBackendRecvTimeoutPeerExit(t *testing.T) {
	runEnginePaths(t, 2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			if _, out := r.RecvTimeout(1, 1e9); out != RecvPeerExited {
				return errors.New("expected RecvPeerExited")
			}
		}
		return nil
	})
}

func TestEventBackendSendTimeout(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 1
	runEnginePaths(t, 2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			if out := r.SendTimeout(1, []float64{1}, 100); out != SendOK {
				return errors.New("first send must fit")
			}
			// Queue now full; rank 1 drains only after a long compute.
			if out := r.SendTimeout(1, []float64{2}, 100); out != SendTimedOut {
				return errors.New("expected SendTimedOut")
			}
			if out := r.SendTimeout(1, []float64{3}, 1e9); out != SendOK {
				return errors.New("expected eventual SendOK")
			}
		} else {
			r.Compute(50000)
			r.Recv(0)
			r.Recv(0)
		}
		return nil
	})
}

func TestEventBackendCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cost := unitCost
	cost.Context = ctx
	started := make(chan struct{})
	var once chan struct{} = started
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			if once != nil {
				close(once)
				once = nil
			}
			r.Recv(1) // blocks forever; only cancellation releases it
		} else {
			for {
				r.Compute(1)
			}
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
	}
}

// TestEventBackendFaultIdentity replays a seeded chaos plan — dups,
// corruption, degradation, a respawned crash — on the default pool and on
// one worker. The fault plan is a pure virtual-time state machine, so
// Results must match bitwise.
func TestEventBackendFaultIdentity(t *testing.T) {
	plan := &FaultPlan{
		Seed:       7,
		Crashes:    map[int]float64{1: 5000},
		Respawn:    true,
		RebootTime: 3,
		Links:      []LinkFault{{Src: -1, Dst: -1, DupProb: 0.3, CorruptProb: 0.2}},
		Degraded:   []DegradedLink{{Src: -1, Dst: -1, From: 2000, AlphaFactor: 2, BetaFactor: 3}},
	}
	cost := unitCost
	cost.Faults = plan
	runEnginePaths(t, 4, cost, func(r *Rank) error {
		w := r.World()
		data := []float64{float64(r.ID()), 1, 2}
		for step := 0; step < 5; step++ {
			r.Compute(500)
			data = w.Shift(data, 1)
			r.TakeCrashed()
		}
		w.Barrier()
		return nil
	})
}

// TestEventBackendWorkers checks that every pool size yields the same
// deterministic result as a single worker.
func TestEventBackendWorkers(t *testing.T) {
	one := unitCost
	one.Workers = 1
	ref, err := Run(8, one, collectiveTour)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		cost := unitCost
		cost.Workers = workers
		res := runEnginePaths(t, 8, cost, collectiveTour)
		for i := range ref.PerRank {
			if ref.PerRank[i] != res.PerRank[i] {
				t.Errorf("Workers=%d rank %d stats differ from Workers=1:\n  %+v\n  %+v",
					workers, i, res.PerRank[i], ref.PerRank[i])
			}
		}
	}
}

// TestEventBackendYieldsToEqualClock pins the engine's fairness on one
// worker: a zero-cost compute loop never advances its clock, so it must
// still yield to a runnable rank at the same clock — here the rank whose
// real-time side effect the loop waits for.
func TestEventBackendYieldsToEqualClock(t *testing.T) {
	var flag atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Run(2, Cost{Workers: 1}, func(r *Rank) error {
			if r.ID() == 0 {
				flag.Store(true)
				return nil
			}
			for !flag.Load() {
				r.Compute(1)
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a zero-cost compute loop starved an equal-clock rank on one worker")
	}
}

// TestEventBackendObserverStream compares the per-rank observer event
// sequences between one worker and the default pool. Cross-rank
// interleaving is unordered by contract, so only the per-rank order is
// asserted.
func TestEventBackendObserverStream(t *testing.T) {
	record := func(workers int) map[int][]Segment {
		obs := newRecObs()
		cost := unitCost
		cost.Workers = workers
		cost.Observers = []Observer{obs}
		if _, err := Run(4, cost, collectiveTour); err != nil {
			t.Fatal(err)
		}
		return obs.segs
	}
	oneSegs := record(1)
	poolSegs := record(0)
	for rank := 0; rank < 4; rank++ {
		one, pool := oneSegs[rank], poolSegs[rank]
		if len(one) != len(pool) {
			t.Fatalf("rank %d: %d segments on one worker vs %d on the pool",
				rank, len(one), len(pool))
		}
		for i := range one {
			if one[i] != pool[i] {
				t.Errorf("rank %d segment %d differs:\n  one worker: %+v\n  pool:       %+v",
					rank, i, one[i], pool[i])
			}
		}
	}
}

// TestEventBackendTracer makes sure Cost.Trace works under the engine.
func TestEventBackendTracer(t *testing.T) {
	cost := unitCost
	cost.Trace = true
	res, err := Run(2, cost, func(r *Rank) error {
		r.Compute(5)
		if r.ID() == 0 {
			r.Send(1, []float64{1})
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Segments) != 2 {
		t.Fatalf("trace missing: %+v", res.Trace)
	}
}

// TestEventBackendLargeRing is a smoke test at scale: a 4096-rank ring
// shift plus an AllReduce, fast-forwarded.
func TestEventBackendLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large ring skipped in -short")
	}
	cost := unitCost
	cost.GammaT = 1
	cost.AlphaT = 1e-6
	cost.BetaT = 1e-9
	res, err := Run(4096, cost, func(r *Rank) error {
		w := r.World()
		data := []float64{float64(r.ID())}
		data = w.Shift(data, 1)
		out := w.AllReduce(data, OpSum)
		want := float64(4096 * 4095 / 2)
		if out[0] != want {
			return errors.New("wrong AllReduce sum")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[0].Flops <= 0 {
		t.Errorf("rank 0 flops: %g", res.PerRank[0].Flops)
	}
}
