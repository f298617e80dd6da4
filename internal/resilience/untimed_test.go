package resilience_test

import (
	"math"
	"testing"

	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// The reliable endpoint with its timers disabled — the configuration
// ABFT25D and RunCheckpointed run on — must mask the faults that leave
// evidence (damage, duplication) by checksums and sequence numbers alone.

// testCost gives the runs a virtual clock; a protocol bug surfaces as a
// deadlock diagnostic instead of a hung test.
func testCost() sim.Cost {
	return sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
}

// untimed wraps r with the infinite-RTO endpoint.
func untimed(r *sim.Rank) *resilience.ARQ {
	return resilience.NewARQ(r, resilience.ARQConfig{RTO: math.Inf(1)})
}

func TestReliableDeliversInOrder(t *testing.T) {
	const msgs = 10
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		rel := untimed(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := rel.Send(1, []float64{float64(i), float64(2 * i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := rel.Recv(0)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != float64(i) || got[1] != float64(2*i) {
				t.Errorf("message %d mangled: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReliableMasksCorruption(t *testing.T) {
	const msgs = 20
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed: 11,
		// Corrupt only the data direction; the protocol documents that the
		// ack direction must stay clean.
		Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5}},
	}
	res, err := sim.Run(2, cost, func(r *sim.Rank) error {
		rel := untimed(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := rel.Send(1, []float64{float64(i), 100 + float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := rel.Recv(0)
			if err != nil {
				return err
			}
			if got[0] != float64(i) || got[1] != 100+float64(i) {
				t.Errorf("corrupted payload leaked through: message %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retransmissions must show up in the counters: strictly more sender
	// messages than the msgs data packets + msgs·0 acks it sends itself.
	if got := res.PerRank[0].MsgsSent; got <= msgs {
		t.Errorf("expected retransmissions beyond %d packets, counted %g", msgs, got)
	}
}

func TestReliableMasksDuplication(t *testing.T) {
	const msgs = 5
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  3,
		Links: []sim.LinkFault{{Src: -1, Dst: -1, DupProb: 1}},
	}
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		rel := untimed(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := rel.Send(1, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := rel.Recv(0)
			if err != nil {
				return err
			}
			if got[0] != float64(i) {
				t.Errorf("duplicate reordered the stream: message %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReliableCorruptionIsDeterministic(t *testing.T) {
	run := func() sim.Stats {
		cost := testCost()
		cost.Faults = &sim.FaultPlan{
			Seed:  42,
			Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5, DupProb: 0.25}},
		}
		res, err := sim.Run(2, cost, func(r *sim.Rank) error {
			rel := untimed(r)
			if r.ID() == 0 {
				for i := 0; i < 10; i++ {
					if err := rel.Send(1, []float64{float64(i), float64(i * i)}); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < 10; i++ {
				if _, err := rel.Recv(0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRank[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("retry traffic must be byte-identical across runs:\n%+v\n%+v", a, b)
	}
}
