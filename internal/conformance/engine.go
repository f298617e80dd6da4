package conformance

import (
	"fmt"
	"sync"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// The engine family pins the simulator's schedule invariance. Any valid
// scheduling of the deterministic clock rules must give the same answer,
// and the event engine has two scheduling knobs a run can never observe:
// whether collectives are fast-forwarded (conducted centrally in one pass)
// or executed event by event, and how many ranks run concurrently
// (Cost.Workers). The family demands bitwise equality across both — per-
// rank F/W/S/M counters, clocks, ActivePairs, and per-rank observer event
// streams — never tolerance bands:
//
//   - every algorithm in the registry runs at a quick point three ways: as
//     is (no observer, fault plan or context, so every cluster-wide
//     collective is fast-forwarded), with a no-op observer attached (which
//     disables fast-forward and forces the event-by-event slow path), and
//     on a single worker. The Results must be identical;
//   - an observed run repeats on one worker and on the default pool, and
//     the per-rank segment streams must match element for element
//     (cross-rank interleaving is unordered by contract and not compared);
//   - a seeded chaos plan — silent drops, duplications, corruptions — runs
//     through the ARQ endpoints twice, on one worker and on the default
//     pool: recovery is virtual-time state machinery, so stats, the product
//     matrix, the ARQ protocol counters and the per-rank fault/timer
//     streams must all replay bitwise.
func checkEngine(ck *checker, cfg Config) error {
	if err := engineAlgorithmIdentity(ck, cfg); err != nil {
		return err
	}
	if err := engineObserverIdentity(ck, cfg); err != nil {
		return err
	}
	// One seed suffices: this is an identity check between schedules, not
	// a fault-coverage sweep (the replay and recovery families cover every
	// seed).
	return engineChaosIdentity(ck, cfg, cfg.Seeds[0])
}

// oneWorker pins a cost to a single engine worker.
func oneWorker(cost sim.Cost) sim.Cost {
	cost.Workers = 1
	return cost
}

// enginePoint picks the one sweep coordinate per algorithm the identity
// check runs at: the first quick point keeps the family inside the CI
// budget while still touching every collective each algorithm uses.
func enginePoint(alg algorithmDef) Point { return alg.points(Quick)[0] }

// engineAlgorithmIdentity runs every registry algorithm fast-forwarded, on
// the slow path and on one worker, and requires bitwise-identical Results.
// The reference leg drops the sweep's cancel context so it really takes
// the fast-forward path; it is one small run.
func engineAlgorithmIdentity(ck *checker, cfg Config) error {
	for _, alg := range selectAlgorithms(cfg.Algorithms) {
		pt := enginePoint(alg)
		ffCost := cfg.cost()
		ffCost.Context = nil
		ref, err := alg.run(ffCost, cfg.Machine, pt)
		if err != nil {
			return fmt.Errorf("conformance: engine %s %s (fast-forward): %w", alg.name, pt, err)
		}
		slowCost := cfg.cost()
		slowCost.Observers = []sim.Observer{&blindObserver{}}
		for _, leg := range []struct {
			name, property string
			cost           sim.Cost
		}{
			{"slow path", "engine/fast-forward", slowCost},
			{"one worker", "engine/workers", oneWorker(cfg.cost())},
		} {
			got, err := alg.run(leg.cost, cfg.Machine, pt)
			if err != nil {
				return fmt.Errorf("conformance: engine %s %s (%s): %w", alg.name, pt, leg.name, err)
			}
			rank, same := statsIdentical(ref.res, got.res)
			ck.checkTrue(leg.property+"/per-rank-stats", alg.name, pt, "",
				same, float64(rank), -1,
				"per-rank stats differ between the fast-forwarded run and the "+leg.name+" run (first differing rank in Got)")
			ck.checkTrue(leg.property+"/active-pairs", alg.name, pt, "",
				ref.res.ActivePairs == got.res.ActivePairs,
				float64(ref.res.ActivePairs), float64(got.res.ActivePairs),
				"wired pair count differs between the fast-forwarded run and the "+leg.name+" run")
		}
	}
	return nil
}

// streamObs records per-rank observer streams for cross-schedule
// comparison. One mutex suffices: the engine delivers from its worker
// pool.
type streamObs struct {
	mu     sync.Mutex
	segs   map[int][]sim.Segment
	faults map[int][]sim.FaultEvent
	timers map[int][]sim.TimerEvent
}

func newStreamObs() *streamObs {
	return &streamObs{
		segs:   map[int][]sim.Segment{},
		faults: map[int][]sim.FaultEvent{},
		timers: map[int][]sim.TimerEvent{},
	}
}

func (o *streamObs) add(rank int, seg sim.Segment) {
	o.mu.Lock()
	o.segs[rank] = append(o.segs[rank], seg)
	o.mu.Unlock()
}

func (o *streamObs) OnCompute(rank int, seg sim.Segment) { o.add(rank, seg) }
func (o *streamObs) OnSend(rank int, seg sim.Segment)    { o.add(rank, seg) }
func (o *streamObs) OnRecv(rank int, seg sim.Segment)    { o.add(rank, seg) }
func (o *streamObs) OnPhase(int, string, float64)        {}
func (o *streamObs) OnFault(ev sim.FaultEvent) {
	o.mu.Lock()
	o.faults[ev.Src] = append(o.faults[ev.Src], ev)
	o.mu.Unlock()
}
func (o *streamObs) OnCrash(sim.CrashEvent)       {}
func (o *streamObs) OnDeadlock(sim.DeadlockEvent) {}
func (o *streamObs) OnTimer(ev sim.TimerEvent) {
	o.mu.Lock()
	o.timers[ev.Rank] = append(o.timers[ev.Rank], ev)
	o.mu.Unlock()
}

// diffStreams returns the first rank whose recorded stream differs between
// the two observers, or -1 if all match.
func diffStreams(a, b *streamObs, p int) int {
	for rank := 0; rank < p; rank++ {
		if len(a.segs[rank]) != len(b.segs[rank]) {
			return rank
		}
		for i := range a.segs[rank] {
			if a.segs[rank][i] != b.segs[rank][i] {
				return rank
			}
		}
		if len(a.faults[rank]) != len(b.faults[rank]) {
			return rank
		}
		for i := range a.faults[rank] {
			if a.faults[rank][i] != b.faults[rank][i] {
				return rank
			}
		}
		if len(a.timers[rank]) != len(b.timers[rank]) {
			return rank
		}
		for i := range a.timers[rank] {
			if a.timers[rank][i] != b.timers[rank][i] {
				return rank
			}
		}
	}
	return -1
}

// engineObserverIdentity runs one algorithm with an observer subscribed —
// which disqualifies fast-forward, so both legs take the event-by-event
// slow path — on one worker and on the default pool. Stats and the
// per-rank segment streams must match element for element.
func engineObserverIdentity(ck *checker, cfg Config) error {
	const alg = "matmul-2.5d"
	pt := Point{N: 48, Q: 4, C: 2, P: 32}
	a := matrix.Random(pt.N, pt.N, 51)
	b := matrix.Random(pt.N, pt.N, 52)
	run := func(cost sim.Cost) (*matmul.RunResult, *streamObs, error) {
		obs := newStreamObs()
		cost.Observers = []sim.Observer{obs}
		res, err := matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
		return res, obs, err
	}
	ref, refObs, err := run(oneWorker(cfg.cost()))
	if err != nil {
		return fmt.Errorf("conformance: engine observer %s (one worker): %w", pt, err)
	}
	pool, poolObs, err := run(cfg.cost())
	if err != nil {
		return fmt.Errorf("conformance: engine observer %s (pool): %w", pt, err)
	}
	rank, same := statsIdentical(ref.Sim, pool.Sim)
	ck.checkTrue("engine/observed-per-rank-stats", alg, pt, "",
		same, float64(rank), -1,
		"observed per-rank stats differ between one worker and the pool (first differing rank in Got)")
	diff := diffStreams(refObs, poolObs, pt.P)
	ck.checkTrue("engine/observer-stream", alg, pt, "",
		diff < 0, float64(diff), -1,
		"per-rank observer event streams differ between one worker and the pool (first differing rank in Got)")
	return nil
}

// engineChaosIdentity replays one seeded chaos plan — drops, duplications
// and corruptions masked by the ARQ endpoints — on one worker and on the
// default pool, and requires the complete outcome to match bitwise:
// per-rank stats, the product matrix, the protocol counters, and the
// per-rank fault and timer streams.
func engineChaosIdentity(ck *checker, cfg Config, seed uint64) error {
	const alg = "summa-arq"
	pt := Point{N: 32, P: 16, Q: 4}
	a := matrix.Random(pt.N, pt.N, 61)
	b := matrix.Random(pt.N, pt.N, 62)
	nb := pt.N / pt.Q
	run := func(cost sim.Cost) (*resilience.SUMMAARQResult, *streamObs, error) {
		arqCfg := resilience.ARQDefaults(cost, nb*nb)
		arqCfg.MaxAttempts = 3
		arqCfg.MaxRTO = 8 * arqCfg.RTO
		obs := newStreamObs()
		cost.Observers = []sim.Observer{obs}
		cost.Faults = recoveryFaults(seed)
		res, err := resilience.SUMMAARQ(cost, pt.Q, arqCfg, a, b)
		return res, obs, err
	}
	ref, refObs, err := run(oneWorker(cfg.cost()))
	if err != nil {
		return fmt.Errorf("conformance: engine chaos seed %#x (one worker): %w", seed, err)
	}
	pool, poolObs, err := run(cfg.cost())
	if err != nil {
		return fmt.Errorf("conformance: engine chaos seed %#x (pool): %w", seed, err)
	}
	rank, same := statsIdentical(ref.Sim, pool.Sim)
	ck.checkTrue("engine/chaos-per-rank-stats", alg, pt, "",
		same, float64(rank), -1,
		fmt.Sprintf("seed %#x: chaos per-rank stats differ between replays (first differing rank in Got)", seed))
	ck.checkTrue("engine/chaos-numerics", alg, pt, "",
		ref.C.MaxAbsDiff(pool.C) == 0, ref.C.MaxAbsDiff(pool.C), 0,
		fmt.Sprintf("seed %#x: product differs between replays", seed))
	refRep, poolRep := ref.Report(), pool.Report()
	ck.checkTrue("engine/chaos-arq-counters", alg, pt, "",
		refRep == poolRep, float64(refRep.Retransmits), float64(poolRep.Retransmits),
		fmt.Sprintf("seed %#x: ARQ protocol counters differ between replays (one worker %+v, pool %+v)", seed, refRep, poolRep))
	diff := diffStreams(refObs, poolObs, pt.P)
	ck.checkTrue("engine/chaos-observer-stream", alg, pt, "",
		diff < 0, float64(diff), -1,
		fmt.Sprintf("seed %#x: per-rank fault/timer/segment streams differ between replays (first differing rank in Got)", seed))
	return nil
}
