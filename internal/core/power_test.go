package core_test

import (
	"math"
	"testing"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// The power profile is built by obs.NewPowerProfile from a collected run;
// these tests pin it against core's pricing of the same run.

// powerMachine has every parameter nonzero so missing terms show up.
func powerMachine() machine.Params {
	return machine.Params{
		Name:   "test",
		GammaT: 1e-9, BetaT: 5e-9, AlphaT: 2e-6,
		GammaE: 2e-9, BetaE: 8e-9, AlphaE: 3e-6,
		DeltaE: 4e-10, EpsilonE: 0.05,
		MemWords: 1 << 30, MaxMsgWords: 1 << 16,
	}
}

func near(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// collected returns m's timing cost with a fresh p-rank Collector
// subscribed.
func collected(m machine.Params, p int) (sim.Cost, *obs.Collector) {
	col := obs.NewCollector(p)
	return sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords), Observers: []sim.Observer{col}}, col
}

func TestProfileIntegralMatchesPriceSim(t *testing.T) {
	m := powerMachine()
	a := matrix.Random(48, 48, 1)
	b := matrix.Random(48, 48, 2)
	cost, col := collected(m, 4*4*2)
	res, err := matmul.TwoPointFiveD(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := obs.NewPowerProfile(m, res.Sim, col, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := core.PriceSim(m, res.Sim).Total()
	if !near(prof.TotalEnergy, want, 1e-9) {
		t.Errorf("profile integral %g vs PriceSim %g", prof.TotalEnergy, want)
	}
	if !near(prof.Avg, want/res.Sim.Time(), 1e-9) {
		t.Errorf("profile average %g vs E/T %g", prof.Avg, want/res.Sim.Time())
	}
}

func TestProfilePeakAtLeastAverage(t *testing.T) {
	m := powerMachine()
	a := matrix.Random(32, 32, 3)
	b := matrix.Random(32, 32, 4)
	cost, col := collected(m, 4*4)
	res, err := matmul.Cannon(cost, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := obs.NewPowerProfile(m, res.Sim, col, 32)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Peak < prof.Avg {
		t.Errorf("peak %g below average %g", prof.Peak, prof.Avg)
	}
	if prof.Peak < prof.StaticPower {
		t.Errorf("peak %g below the static floor %g", prof.Peak, prof.StaticPower)
	}
	// Every bucket sits at or above the static floor.
	for i, p := range prof.Power {
		if p < prof.StaticPower-1e-12 {
			t.Fatalf("bucket %d below static floor: %g < %g", i, p, prof.StaticPower)
		}
	}
	if len(prof.BucketStart) != 32 || prof.BucketStart[0] != 0 {
		t.Error("bucket grid wrong")
	}
}

func TestProfileHandComputed(t *testing.T) {
	m := machine.Params{
		GammaT: 1, BetaT: 0, AlphaT: 1,
		GammaE: 2, BetaE: 0, AlphaE: 4, DeltaE: 0, EpsilonE: 1,
		MemWords: 1 << 20, MaxMsgWords: 1 << 20,
	}
	// Rank 0: compute 10s (γe·10 = 20 J over [0,10]), send (α=1s, αe·1 = 4 J
	// over [10,11]). Rank 1: waits. T = 11. Static: εe per rank = 2 W.
	col := obs.NewCollector(2)
	res, err := sim.Run(2, sim.Cost{GammaT: 1, AlphaT: 1, Observers: []sim.Observer{col}}, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(10)
			r.Send(1, []float64{1})
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := obs.NewPowerProfile(m, res, col, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets 0..9: compute 2 W + static 2 W = 4. Bucket 10: send 4 W + 2.
	for b := 0; b < 10; b++ {
		if !near(prof.Power[b], 4, 1e-12) {
			t.Errorf("bucket %d: %g want 4", b, prof.Power[b])
		}
	}
	if !near(prof.Power[10], 6, 1e-12) {
		t.Errorf("send bucket: %g want 6", prof.Power[10])
	}
	if !near(prof.Peak, 6, 1e-12) {
		t.Errorf("peak %g want 6", prof.Peak)
	}
	if !near(prof.TotalEnergy, 20+4+2*11, 1e-12) {
		t.Errorf("total %g want 46", prof.TotalEnergy)
	}
}

func TestProfileErrors(t *testing.T) {
	m := powerMachine()
	col := obs.NewCollector(1)
	res, err := sim.Run(1, sim.Cost{GammaT: 1, Observers: []sim.Observer{col}}, func(r *sim.Rank) error {
		r.Compute(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.NewPowerProfile(m, res, nil, 8); err == nil {
		t.Error("a run without a collector should be rejected")
	}
	if _, err := obs.NewPowerProfile(m, res, col, 0); err == nil {
		t.Error("zero buckets should be rejected")
	}
	emptyCol := obs.NewCollector(1)
	empty, err := sim.Run(1, sim.Cost{Observers: []sim.Observer{emptyCol}}, func(r *sim.Rank) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.NewPowerProfile(m, empty, emptyCol, 4); err == nil {
		t.Error("zero-length run should be rejected")
	}
}

// TestPeakExceedsAverageUnderImbalance: the motivation for profiles — a
// bursty program's peak power is far above its average, which the paper's
// P = E/T cannot see.
func TestPeakExceedsAverageUnderImbalance(t *testing.T) {
	m := powerMachine()
	// All ranks compute briefly, then idle while one straggler works: the
	// average sinks, the early peak stays.
	col := obs.NewCollector(8)
	res, err := sim.Run(8, sim.Cost{GammaT: m.GammaT, Observers: []sim.Observer{col}}, func(r *sim.Rank) error {
		r.Compute(1e6)
		if r.ID() == 0 {
			r.Compute(9e6)
		}
		r.World().Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := obs.NewPowerProfile(m, res, col, 50)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Peak < 2*(prof.Avg-prof.StaticPower)+prof.StaticPower {
		t.Errorf("straggler run should be bursty: peak %g avg %g static %g",
			prof.Peak, prof.Avg, prof.StaticPower)
	}
}
