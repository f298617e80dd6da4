package resilience_test

import (
	"testing"

	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// TestRecoveryProtocolsWiringBitIdentical pins that the pair-queue wiring
// changes nothing for the recovery protocols either: an ABFT run that
// survives a mid-flight crash, and a checkpointed stencil that rolls back,
// both produce bit-identical outputs and per-rank accounting with the
// default queue depth and with two-slot queues on a single engine worker,
// where senders park on backpressure and ranks run one at a time.
func TestRecoveryProtocolsWiringBitIdentical(t *testing.T) {
	shallow := func(cost sim.Cost) sim.Cost {
		cost.ChanCap = 2
		cost.Workers = 1
		return cost
	}
	assertSame := func(name string, deep, shallow *sim.Result) {
		t.Helper()
		for id := range deep.PerRank {
			if deep.PerRank[id] != shallow.PerRank[id] {
				t.Errorf("%s rank %d stats differ:\ndefault:   %+v\ntwo-slot: %+v",
					name, id, deep.PerRank[id], shallow.PerRank[id])
			}
		}
	}

	a, b := abftOperands(16)
	abftCost := testCost()
	abftCost.Faults = &sim.FaultPlan{
		Seed:       5,
		Crashes:    map[int]float64{4*4 + 5: 1e-4}, // a layer-1 rank, mid-run
		Respawn:    true,
		RebootTime: 1e-5,
	}
	runABFT := func(cost sim.Cost) *resilience.Result {
		res, err := resilience.ABFT25D(cost, 4, 2, a, b)
		if err != nil {
			t.Fatalf("ABFT (ChanCap %d): %v", cost.ChanCap, err)
		}
		return res
	}
	ad, as := runABFT(abftCost), runABFT(shallow(abftCost))
	if d := ad.C.MaxAbsDiff(as.C); d != 0 {
		t.Errorf("ABFT products differ between queue depths: max diff %g", d)
	}
	assertSame("ABFT", ad.Sim, as.Sim)

	ckptCost := testCost()
	ckptCost.Faults = &sim.FaultPlan{
		Seed:       3,
		Crashes:    map[int]float64{2: 1e-5},
		Respawn:    true,
		RebootTime: 1e-5,
	}
	runCkpt := func(cost sim.Cost) *resilience.CheckpointResult {
		res, err := resilience.RunCheckpointed(cost, 4, 12, 3, stencilInit, stencilStep)
		if err != nil {
			t.Fatalf("checkpoint (ChanCap %d): %v", cost.ChanCap, err)
		}
		return res
	}
	cd, cs := runCkpt(ckptCost), runCkpt(shallow(ckptCost))
	for id := range cd.States {
		for i := range cd.States[id] {
			if cd.States[id][i] != cs.States[id][i] {
				t.Errorf("checkpoint state rank %d word %d differs: default %g two-slot %g",
					id, i, cd.States[id][i], cs.States[id][i])
			}
		}
	}
	assertSame("checkpoint", cd.Sim, cs.Sim)
}
