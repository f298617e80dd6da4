package resilience_test

import (
	"strings"
	"testing"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

const abftTol = 1e-9

func abftOperands(n int) (*matrix.Dense, *matrix.Dense) {
	return matrix.Random(n, n, 1), matrix.Random(n, n, 2)
}

func TestABFTNoFaultMatchesSerial(t *testing.T) {
	a, b := abftOperands(16)
	res, err := resilience.ABFT25D(testCost(), 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matmul.Serial(a, b)
	if d := res.C.MaxAbsDiff(want); d > abftTol {
		t.Errorf("fault-free ABFT product off by %g", d)
	}
}

func TestABFTRecoversFromCrash(t *testing.T) {
	a, b := abftOperands(16)
	base, err := resilience.ABFT25D(testCost(), 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Crash a layer-1 rank at 40% of the fault-free runtime, mid-panel-loop.
	crashRank := 4*4 + 5
	crashT := 0.4 * base.Sim.Time()
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:       5,
		Crashes:    map[int]float64{crashRank: crashT},
		Respawn:    true,
		RebootTime: 0.05 * base.Sim.Time(),
	}
	res, err := resilience.ABFT25D(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matmul.Serial(a, b)
	if d := res.C.MaxAbsDiff(want); d > abftTol {
		t.Errorf("recovered product off by %g", d)
	}
	// Recovery is real work: the run must be strictly more expensive than
	// the fault-free one in time and in words moved.
	if res.Sim.Time() <= base.Sim.Time() {
		t.Errorf("recovery should cost time: %g <= %g", res.Sim.Time(), base.Sim.Time())
	}
	if res.Sim.TotalStats().WordsSent <= base.Sim.TotalStats().WordsSent {
		t.Errorf("recovery should move words: %g <= %g",
			res.Sim.TotalStats().WordsSent, base.Sim.TotalStats().WordsSent)
	}

	// The determinism guarantee: an identical plan reproduces the product
	// and every per-rank counter bit for bit.
	again, err := resilience.ABFT25D(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.C.Data {
		if again.C.Data[i] != v {
			t.Fatalf("product not byte-identical across runs at word %d", i)
		}
	}
	for id := range res.Sim.PerRank {
		if res.Sim.PerRank[id] != again.Sim.PerRank[id] {
			t.Errorf("rank %d stats differ across identical faulty runs:\n%+v\n%+v",
				id, res.Sim.PerRank[id], again.Sim.PerRank[id])
		}
	}
}

func TestABFTRecoversFromTwoCrashes(t *testing.T) {
	a, b := abftOperands(16)
	base, err := resilience.ABFT25D(testCost(), 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Two casualties in distinct fibers: (1,1,0) and (2,3,1).
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Crashes: map[int]float64{
			1*4 + 1:      0.3 * base.Sim.Time(),
			16 + 2*4 + 3: 0.6 * base.Sim.Time(),
		},
		Respawn: true,
	}
	res, err := resilience.ABFT25D(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.C.MaxAbsDiff(matmul.Serial(a, b)); d > abftTol {
		t.Errorf("product off by %g after two recoveries", d)
	}
}

func TestABFTToleratesCorruptReplicationLink(t *testing.T) {
	a, b := abftOperands(16)
	base, err := resilience.ABFT25D(testCost(), 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the fiber-replication link (0,0,0) -> (0,0,1); the reliable
	// endpoint must retransmit until a clean copy lands.
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  8,
		Links: []sim.LinkFault{{Src: 0, Dst: 16, CorruptProb: 0.5}},
	}
	res, err := resilience.ABFT25D(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.C.MaxAbsDiff(matmul.Serial(a, b)); d > abftTol {
		t.Errorf("product off by %g under replication-link corruption", d)
	}
	if res.Sim.TotalStats().MsgsSent <= base.Sim.TotalStats().MsgsSent {
		t.Error("retransmissions must show up in the message counters")
	}
}

func TestABFTUnrecoverableWithoutRedundancy(t *testing.T) {
	a, b := abftOperands(16)
	base, err := resilience.ABFT25D(testCost(), 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Crashes: map[int]float64{3: 0.4 * base.Sim.Time()},
		Respawn: true,
	}
	_, err = resilience.ABFT25D(cost, 4, 1, a, b)
	if err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Errorf("c=1 has no redundancy; expected an unrecoverable error, got %v", err)
	}
}

func TestABFTValidation(t *testing.T) {
	a, b := abftOperands(16)
	hard := testCost()
	hard.Faults = &sim.FaultPlan{Crashes: map[int]float64{0: 1}}
	if _, err := resilience.ABFT25D(hard, 4, 2, a, b); err == nil {
		t.Error("crashes without Respawn must be rejected")
	}
	if _, err := resilience.ABFT25D(testCost(), 3, 2, a, b); err == nil {
		t.Error("c must divide q")
	}
	if _, err := resilience.ABFT25D(testCost(), 5, 1, a, b); err == nil {
		t.Error("q must divide n")
	}
}
