package matmul

import (
	"testing"

	"perfscale/internal/sim"
)

// TestTwoPointFiveDWiringBitIdentical pins the pair-queue wiring contract on
// a real algorithm: how deep each wired pair's queue is — and so how often
// a sender parks on backpressure — never changes what the simulation
// computes. A p=256 2.5D multiplication produces a bit-identical product
// matrix and bit-identical per-rank counters and clocks with the default
// queues, with two-slot queues (the shallowest this algorithm runs on: its
// self-sends queue two messages before the matching receives), and with
// two-slot queues on a single engine worker.
func TestTwoPointFiveDWiringBitIdentical(t *testing.T) {
	const n, q, c = 32, 8, 4 // p = q²·c = 256
	a, b := randPair(n, 42)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16, ChargeReceiver: true}

	run := func(name string, chanCap, workers int) *RunResult {
		cw := cost
		cw.ChanCap = chanCap
		cw.Workers = workers
		res, err := TwoPointFiveD(cw, q, c, a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	ref := run("default queues", 0, 0)
	for _, leg := range []struct {
		name             string
		chanCap, workers int
	}{
		{"two-slot queues", 2, 0},
		{"two-slot queues, one worker", 2, 1},
	} {
		got := run(leg.name, leg.chanCap, leg.workers)
		if d := ref.C.MaxAbsDiff(got.C); d != 0 {
			t.Errorf("%s: product matrix differs: max diff %g", leg.name, d)
		}
		for id := range ref.Sim.PerRank {
			if ref.Sim.PerRank[id] != got.Sim.PerRank[id] {
				t.Errorf("%s: rank %d stats differ:\ndefault: %+v\ngot:     %+v",
					leg.name, id, ref.Sim.PerRank[id], got.Sim.PerRank[id])
			}
		}
		if ref.Sim.ActivePairs != got.Sim.ActivePairs {
			t.Errorf("%s: wired pairs %d, want %d", leg.name, got.Sim.ActivePairs, ref.Sim.ActivePairs)
		}
	}
}
