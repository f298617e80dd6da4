package resilience_test

import (
	"math"
	"testing"

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
	cost.Trace = true
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
	res, err := sim.Run(4, cost, program)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must actually have caused retransmissions, or the test
	// pins nothing; compare against a fault-free run of the same program.
	cleanCost := testCost()
	cleanCost.Trace = true
	faultFree, err := sim.Run(4, cleanCost, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStats().MsgsSent <= faultFree.TotalStats().MsgsSent {
		t.Fatalf("fault plan caused no retransmissions (%g msgs vs %g clean)",
			res.TotalStats().MsgsSent, faultFree.TotalStats().MsgsSent)
	}

	path := res.Trace.CriticalPath()
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
