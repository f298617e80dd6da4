package resilience_test

import (
	"math"
	"testing"

	"perfscale/internal/obs"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// The critical path must tile [0, T] exactly even when the timeline is
// shaped by fault-driven retransmissions: every retransmitted frame is an
// ordinary send/wait pair, so the backward walk must keep working through
// the extra traffic the untimed reliable endpoint generates.
//
// Pair (0,1) drops primaries but duplicates every message (DupProb = 1):
// the surviving copy keeps the timer-free protocol alive — a sole dropped
// copy would deadlock by design. Pair (2,3) corrupts frames, forcing
// genuine retransmission rounds. The two fault classes are deliberately
// NOT combined on one link: a damaged copy makes the protocol emit two
// frames (retransmit + nack) and DupProb = 1 doubles every one of them,
// so corruption on a duplicating link sets off a supercritical nack storm
// that fills the per-pair buffers until both endpoints wedge in raw Send.
// Without duplication the storm's branching factor stays below one for
// CorruptProb ≲ 0.24.
func TestCriticalPathTilesUnderDropsAndRetransmits(t *testing.T) {
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed: 11,
		Links: []sim.LinkFault{
			{Src: 0, Dst: 1, DropProb: 0.4, DupProb: 1},
			{Src: 1, Dst: 0, DropProb: 0.4, DupProb: 1},
			{Src: 2, Dst: 3, CorruptProb: 0.15},
			{Src: 3, Dst: 2, CorruptProb: 0.15},
		},
	}
	// Even ranks lead, odd ranks answer: ARQ.Send blocks for its
	// ack, so the conversation must pair up (an all-send-first ring would
	// deadlock by construction, faults or not).
	const msgs = 12
	program := func(r *sim.Rank) error {
		rel := untimed(r)
		partner := r.ID() ^ 1
		for i := 0; i < msgs; i++ {
			if r.ID()%2 == 0 {
				if err := rel.Send(partner, []float64{float64(i)}); err != nil {
					return err
				}
				got, err := rel.Recv(partner)
				if err != nil || len(got) != 1 || got[0] != float64(2*i) {
					return err
				}
			} else {
				got, err := rel.Recv(partner)
				if err != nil || len(got) != 1 || got[0] != float64(i) {
					return err
				}
				if err := rel.Send(partner, []float64{float64(2 * i)}); err != nil {
					return err
				}
			}
			r.Compute(64)
		}
		_, err := rel.AllReduceSum([]float64{1})
		return err
	}
	col := obs.NewCollector(4)
	cost.Observers = []sim.Observer{col}
	res, err := sim.Run(4, cost, program)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must actually have caused retransmissions, or the test
	// pins nothing; compare against a fault-free run of the same program.
	faultFree, err := sim.Run(4, testCost(), program)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStats().MsgsSent <= faultFree.TotalStats().MsgsSent {
		t.Fatalf("fault plan caused no retransmissions (%g msgs vs %g clean)",
			res.TotalStats().MsgsSent, faultFree.TotalStats().MsgsSent)
	}
	assertPathTiles(t, res, col)
}

// A wait ended by timer expiry has a peer but no releasing message: the
// timed ARQ's retransmission waits are such waits. The critical path must
// keep them on the waiting rank. Jumping to a peer with no send ending at
// the deadline lands inside a straddling wait that jumps back, and the walk
// never returns; seed 1 is such a run.
func TestCriticalPathTilesUnderTimerExpiry(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	cfg := resilience.ARQDefaults(cost, 2)
	for seed := uint64(1); seed <= 20; seed++ {
		cost.Faults = &sim.FaultPlan{
			Seed: seed,
			Links: []sim.LinkFault{
				{Src: 0, Dst: 1, DropProb: 0.3},
				{Src: 1, Dst: 0, DropProb: 0.3},
			},
		}
		col := obs.NewCollector(2)
		cost.Observers = []sim.Observer{col}
		var timeouts int
		res, err := sim.Run(2, cost, func(r *sim.Rank) error {
			arq := resilience.NewARQ(r, cfg)
			for i := 0; i < 8; i++ {
				if r.ID() == 0 {
					if err := arq.Send(1, []float64{float64(i)}); err != nil {
						return err
					}
					r.Compute(64)
				} else if _, err := arq.Recv(0); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				timeouts = arq.Stats().Timeouts
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 1 && timeouts == 0 {
			t.Fatal("seed 1 fired no timer; the test exercises nothing")
		}
		assertPathTiles(t, res, col)
	}
}

// assertPathTiles checks the collector's critical path covers [0, T]
// contiguously.
func assertPathTiles(t *testing.T, res *sim.Result, col *obs.Collector) {
	t.Helper()
	path := obs.CriticalPath(col)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	total := 0.0
	for _, s := range path {
		total += s.Duration()
	}
	if T := res.Time(); math.Abs(total-T) > 1e-9*T {
		t.Errorf("path covers %g of %g", total, T)
	}
	for i := 1; i < len(path); i++ {
		if math.Abs(path[i].Start-path[i-1].End) > 1e-9 {
			t.Fatalf("path gap between %+v and %+v", path[i-1], path[i])
		}
	}
}
