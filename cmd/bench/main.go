// Command bench runs a fixed matrix of (algorithm, p, M) simulations and
// records, for each, the runtime footprint of hosting it (wall-clock,
// allocation, peak RSS, wired pair count) next to the simulated physics
// (virtual time T and priced energy E), from p = 256 up to a million
// simulated ranks.
//
// Output is a JSON report (default BENCH_sim.json) meant to be committed,
// so scaling regressions of the simulator itself show up in review.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfscale/internal/analytics"
	"perfscale/internal/campaign"
	"perfscale/internal/conformance"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// runRecord is one benchmark row: one algorithm at one (p, M) point.
type runRecord struct {
	Algorithm string `json:"algorithm"`
	Q         int    `json:"q"`
	C         int    `json:"c"`
	P         int    `json:"p"`
	N         int    `json:"n"`

	// Host-side footprint of running the simulation.
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	PeakRSSKB   uint64  `json:"peak_rss_kb,omitempty"` // VmHWM; process-wide and monotone
	ActivePairs int     `json:"active_pairs"`

	// Simulated physics of the run.
	SimTime      float64 `json:"sim_time_s"`
	EnergyJoules float64 `json:"energy_joules"`
	MaxFlops     float64 `json:"max_flops"`
	MaxWordsSent float64 `json:"max_words_sent"`
	MaxMsgsSent  float64 `json:"max_msgs_sent"`
	MaxMemWords  float64 `json:"max_mem_words"`
}

// traceOverhead records the wall-clock cost of observing a run through the
// bounded ring-buffer subscriber relative to running it blind. Wall fields
// are each side's best; OverheadFrac is the median of interleaved paired
// ratios, which is robust to host-speed drift between runs.
type traceOverhead struct {
	Algorithm     string  `json:"algorithm"`
	P             int     `json:"p"`
	RingCapacity  int     `json:"ring_capacity"`
	EventsSeen    uint64  `json:"events_seen"`
	PlainWallS    float64 `json:"plain_wall_seconds"`
	ObservedWallS float64 `json:"observed_wall_seconds"`
	OverheadFrac  float64 `json:"overhead_frac"`
}

// recoveryOverhead records the price of self-healing at scale: the same
// SUMMA-over-ARQ point run clean and under a seeded silent-drop plan, with
// the protocol counters and the recovered run's T/E surcharge. The product
// must stay bit-identical — retransmission changes when work happens, never
// what is computed.
type recoveryOverhead struct {
	Algorithm       string  `json:"algorithm"`
	P               int     `json:"p"`
	DropProb        float64 `json:"drop_prob"`
	Retransmits     int     `json:"retransmits"`
	Timeouts        int     `json:"timeouts"`
	OptimisticSends int     `json:"optimistic_sends"`
	BitIdentical    bool    `json:"bit_identical"`
	CleanWallS      float64 `json:"clean_wall_seconds"`
	ChaosWallS      float64 `json:"chaos_wall_seconds"`
	CleanSimT       float64 `json:"clean_sim_time_s"`
	ChaosSimT       float64 `json:"chaos_sim_time_s"`
	CleanEnergyJ    float64 `json:"clean_energy_joules"`
	ChaosEnergyJ    float64 `json:"chaos_energy_joules"`
}

// campaignBench records the chaos-campaign engine's footprint: one full
// sweep of the seeded under-provisioned-detector target (the
// red/green fixture pinned across the test suite), including delta-debugging
// the first finding to its minimal reproducer. Cells, runs and coordinate
// counts are deterministic and must not drift; wall time is the committed
// scaling signal for the engine itself.
type campaignBench struct {
	Workload         string  `json:"workload"`
	P                int     `json:"p"`
	Cells            int     `json:"cells"`
	Runs             int     `json:"runs"`
	Findings         int     `json:"findings"`
	ShrinkRuns       int     `json:"shrink_runs"`
	DiscoveredCoords int     `json:"discovered_coords"`
	MinimizedCoords  int     `json:"minimized_coords"`
	WallSeconds      float64 `json:"wall_seconds"`
}

type report struct {
	Machine       string            `json:"machine"`
	N             int               `json:"n"`
	Runs          []runRecord       `json:"runs"`
	TraceOverhead *traceOverhead    `json:"trace_overhead,omitempty"`
	Recovery      *recoveryOverhead `json:"recovery_overhead,omitempty"`
	Campaign      *campaignBench    `json:"campaign,omitempty"`
	// Conformance is the quick model-conformance sweep (the CI gate), with
	// its wall time, so the gate's cost is tracked alongside the simulator's
	// own scaling numbers.
	Conformance *conformance.Report `json:"conformance,omitempty"`
	// ScalingCurves are the strong- and weak-scaling efficiency-vs-p rows,
	// committable as the scaling-gate baseline.
	ScalingCurves []analytics.CurvePoint `json:"scaling_curves,omitempty"`
}

// vmHWM reads the process's peak resident set (kB) from /proc/self/status;
// it returns 0 where that interface does not exist.
func vmHWM() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

type algo struct {
	name string
	run  func(cost sim.Cost, q, c int, a, b *matrix.Dense) (*matmul.RunResult, error)
}

type point struct{ q, c int }

func main() {
	var (
		out      = flag.String("out", "BENCH_sim.json", "output JSON path")
		mach     = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		n        = flag.Int("n", 256, "matrix dimension (must be divisible by every grid size)")
		big      = flag.Bool("big", true, "include the p=16384 run")
		huge     = flag.Bool("huge", true, "include the p=65536..1048576 family")
		smoke    = flag.Bool("smoke", false, "run only the p=65536 point and exit (CI smoke)")
		srv      = flag.Bool("serve", false, "benchmark the query service instead of the simulator")
		serveOut = flag.String("serveout", "BENCH_serve.json", "output JSON path for -serve")

		curvesOnly   = flag.Bool("curves-only", false, "run only the scaling-curve sweep and exit")
		curvesOut    = flag.String("curves-out", "", "also write the curves as a standalone JSON artifact (default BENCH_scaling.json with -curves-only)")
		checkScaling = flag.String("check-scaling", "", "baseline curves JSON; exit non-zero when any curve regresses beyond -scaling-tol")
		scalingTol   = flag.Float64("scaling-tol", analytics.DefaultGateTolerance, "scaling-gate relative tolerance")
	)
	flag.Parse()

	// The workload is almost all transient garbage (per-step message
	// payloads) over a small live set, so the default GOGC=100 spends a
	// large fraction of every row in back-to-back collections. Relax the
	// target; this applies to every row equally, so comparisons and
	// speedup ratios are unaffected.
	debug.SetGCPercent(1000)

	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *srv {
		if err := serveBench(m, *serveOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *curvesOnly {
		// The CI scaling gate's fast path: measure the efficiency-vs-p
		// curves, write the standalone artifact, and gate against the
		// committed baseline if one was given.
		curves, err := scalingCurves(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		outPath := *curvesOut
		if outPath == "" {
			outPath = "BENCH_scaling.json"
		}
		if err := analytics.WriteCurves(outPath, *mach, curves); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d curve rows)\n", outPath, len(curves))
		if *checkScaling != "" && !gateScaling(curves, *checkScaling, *scalingTol) {
			os.Exit(1)
		}
		return
	}

	algos := []algo{
		{"2.5D-cannon", matmul.TwoPointFiveD},
		{"2.5D-summa", matmul.TwoPointFiveDSUMMA},
	}
	points := []point{
		{q: 16, c: 1}, // p = 256
		{q: 32, c: 1}, // p = 1024
		{q: 16, c: 4}, // p = 1024, replicated
		{q: 64, c: 1}, // p = 4096
	}
	bigPoint := point{q: 64, c: 4} // p = 16384

	a := matrix.Random(*n, *n, 1)
	b := matrix.Random(*n, *n, 2)

	// The simulated virtual-time cost comes from the machine's per-op
	// times; ChanCap is kept small so queue buffers stay cheap at large p.
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, ChanCap: 8}

	rep := report{Machine: *mach, N: *n}

	measure := func(al algo, pt point, dim int, ma, mb *matrix.Dense) runRecord {
		// Collect the previous row's garbage before the clock starts: with
		// the relaxed GC target, an earlier row's heap otherwise lingers
		// into this row's window and its cache/page pressure inflates the
		// measurement.
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := al.run(cost, pt.q, pt.c, ma, mb)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s q=%d c=%d: %v\n", al.name, pt.q, pt.c, err)
			os.Exit(1)
		}
		mx := res.Sim.MaxStats()
		return runRecord{
			Algorithm: al.name, Q: pt.q, C: pt.c, P: pt.q * pt.q * pt.c, N: dim,
			WallSeconds:  wall.Seconds(),
			AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
			PeakRSSKB:    vmHWM(),
			ActivePairs:  res.Sim.ActivePairs,
			SimTime:      res.Sim.Time(),
			EnergyJoules: core.PriceSim(m, res.Sim).Total(),
			MaxFlops:     mx.Flops,
			MaxWordsSent: mx.WordsSent,
			MaxMsgsSent:  mx.MsgsSent,
			MaxMemWords:  mx.PeakMemWords,
		}
	}
	record := func(rec runRecord) {
		rep.Runs = append(rep.Runs, rec)
		fmt.Printf("%-12s p=%-7d wall=%8.3fs pairs=%-8d T=%.4gs E=%.4gJ\n",
			rec.Algorithm, rec.P, rec.WallSeconds, rec.ActivePairs, rec.SimTime, rec.EnergyJoules)
	}

	if *smoke {
		// CI smoke: one p = 65536 run proves the engine still hosts that
		// scale, without paying for the full sweep. No report is written.
		const smokeN = 512
		sa := matrix.Random(smokeN, smokeN, 3)
		sb := matrix.Random(smokeN, smokeN, 4)
		record(measure(algos[0], point{q: 128, c: 4}, smokeN, sa, sb))
		return
	}

	for _, al := range algos {
		for _, pt := range points {
			record(measure(al, pt, *n, a, b))
		}
	}

	// Observation cost: the same p = 1024 point blind vs subscribed to the
	// bounded ring buffer (the configuration recommended for large runs).
	// Host speed drifts between runs (shared boxes, frequency scaling), so
	// timing a plain block and then an observed block confounds drift with
	// the effect. Instead: interleave plain/observed pairs and take the
	// median of the paired ratios — adjacent runs see the same box, so the
	// drift cancels; the median shrugs off GC outliers.
	{
		al := algos[0]
		pt := point{q: 32, c: 1}
		const ringCap = 4096
		const pairs = 7
		var ring *obs.RingBuffer
		runOnce := func(withRing bool) float64 {
			c := cost
			if withRing {
				ring = obs.NewRingBuffer(ringCap)
				c.Observers = []sim.Observer{ring}
			}
			start := time.Now()
			if _, err := al.run(c, pt.q, pt.c, a, b); err != nil {
				fmt.Fprintf(os.Stderr, "trace overhead %s q=%d: %v\n", al.name, pt.q, err)
				os.Exit(1)
			}
			return time.Since(start).Seconds()
		}
		runOnce(false) // warm both code paths before timing
		runOnce(true)
		ratios := make([]float64, 0, pairs)
		plain, observed := 0.0, 0.0
		for i := 0; i < pairs; i++ {
			pw := runOnce(false)
			ow := runOnce(true)
			ratios = append(ratios, ow/pw)
			if i == 0 || pw < plain {
				plain = pw
			}
			if i == 0 || ow < observed {
				observed = ow
			}
		}
		sort.Float64s(ratios)
		rep.TraceOverhead = &traceOverhead{
			Algorithm: al.name, P: pt.q * pt.q * pt.c,
			RingCapacity:  ringCap,
			EventsSeen:    ring.Total(),
			PlainWallS:    plain,
			ObservedWallS: observed,
			OverheadFrac:  ratios[len(ratios)/2] - 1,
		}
		fmt.Printf("trace overhead p=%d: plain %.3fs, ring-observed %.3fs (median paired ratio %+.1f%%, %d events)\n",
			rep.TraceOverhead.P, plain, observed, 100*rep.TraceOverhead.OverheadFrac, ring.Total())
	}

	// Recovery overhead at p = 256: SUMMA over the ARQ endpoints, clean vs
	// a seeded plan of silent drops.
	{
		const q, dropProb = 16, 0.001
		arqCfg := resilience.ARQDefaults(cost, (*n/q)*(*n/q))
		start := time.Now()
		clean, err := resilience.SUMMAARQ(cost, q, arqCfg, a, b)
		cleanWall := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "recovery clean baseline q=%d: %v\n", q, err)
			os.Exit(1)
		}
		chaosCost := cost
		chaosCost.Faults = &sim.FaultPlan{
			Seed:  23,
			Links: []sim.LinkFault{{Src: -1, Dst: -1, DropProb: dropProb}},
		}
		start = time.Now()
		chaos, err := resilience.SUMMAARQ(chaosCost, q, arqCfg, a, b)
		chaosWall := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "recovery chaos run q=%d: %v\n", q, err)
			os.Exit(1)
		}
		arqRep := chaos.Report()
		identical := chaos.C.MaxAbsDiff(clean.C) == 0
		rep.Recovery = &recoveryOverhead{
			Algorithm: "summa-arq", P: q * q, DropProb: dropProb,
			Retransmits:     arqRep.Retransmits,
			Timeouts:        arqRep.Timeouts,
			OptimisticSends: arqRep.OptimisticSends,
			BitIdentical:    identical,
			CleanWallS:      cleanWall,
			ChaosWallS:      chaosWall,
			CleanSimT:       clean.Sim.Time(),
			ChaosSimT:       chaos.Sim.Time(),
			CleanEnergyJ:    core.PriceSim(m, clean.Sim).Total(),
			ChaosEnergyJ:    core.PriceSim(m, chaos.Sim).Total(),
		}
		fmt.Printf("recovery p=%d drop=%g: retx=%d optimistic=%d T %.4gs->%.4gs E %.4gJ->%.4gJ (wall %.3fs->%.3fs)\n",
			q*q, dropProb, arqRep.Retransmits, arqRep.OptimisticSends,
			clean.Sim.Time(), chaos.Sim.Time(),
			rep.Recovery.CleanEnergyJ, rep.Recovery.ChaosEnergyJ, cleanWall, chaosWall)
		if !identical {
			fmt.Fprintf(os.Stderr, "recovery p=%d: drop-masked product DIVERGED from the clean run\n", q*q)
			os.Exit(1)
		}
	}

	// Chaos-campaign footprint: the seeded detector violation swept end to
	// end — enumeration, the structured+random corpus,
	// invariant checks, and the ddmin shrink of the finding. Everything but
	// the wall clock is deterministic, so cell/run/coordinate drift in review
	// means the engine changed behavior, not the host.
	{
		cfg := campaign.Config{
			Target: campaign.Target{
				N: 16, Q: 4,
				MaxAttempts: 3, MaxRTOFactor: 8, DetectorRTOs: 4, DetectorMisses: 2,
			},
			RandomPlans: 2,
		}
		eng, err := campaign.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign bench:", err)
			os.Exit(1)
		}
		start := time.Now()
		st, err := eng.Run(campaign.RunOpts{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign bench:", err)
			os.Exit(1)
		}
		cb := &campaignBench{
			Workload: st.Config.Target.Workload, P: st.Config.Target.Ranks(),
			Cells: len(st.Cells), Runs: st.RunsUsed, Findings: len(st.Findings),
			WallSeconds: time.Since(start).Seconds(),
		}
		if len(st.Findings) > 0 && st.Findings[0].Repro != nil {
			r := st.Findings[0].Repro
			cb.ShrinkRuns = r.ShrinkRuns
			cb.DiscoveredCoords = r.DiscoveredCoords
			cb.MinimizedCoords = r.MinimizedCoords
		}
		rep.Campaign = cb
		fmt.Printf("campaign p=%d: %d cells, %d runs, %d findings, shrink %d → %d coords in %d runs, wall=%.3fs\n",
			cb.P, cb.Cells, cb.Runs, cb.Findings, cb.DiscoveredCoords, cb.MinimizedCoords, cb.ShrinkRuns, cb.WallSeconds)
		if cb.Findings == 0 || cb.MinimizedCoords >= cb.DiscoveredCoords {
			fmt.Fprintln(os.Stderr, "campaign bench: seeded detector violation not found or not minimized")
			os.Exit(1)
		}
	}

	if *big {
		// The scale demonstration at p = 16384, where a dense p×p queue
		// matrix would hold 268M queues before the first simulated flop.
		record(measure(algos[0], bigPoint, *n, a, b))
	}

	if *huge {
		// n = 512 keeps every grid size a divisor; the p = 1048576 row is
		// the headline — a million simulated ranks on one host.
		const hugeN = 512
		ha := matrix.Random(hugeN, hugeN, 3)
		hb := matrix.Random(hugeN, hugeN, 4)
		for _, pt := range []point{
			{q: 128, c: 4},  // p = 65536
			{q: 128, c: 16}, // p = 262144
			{q: 256, c: 16}, // p = 1048576
		} {
			record(measure(algos[0], pt, hugeN, ha, hb))
		}
	}

	// The conformance gate's wall time, measured on the same host as the
	// scaling runs above. Violations are a hard failure: a bench report is
	// only meaningful for a simulator that still matches the model.
	{
		start := time.Now()
		confRep, err := conformance.Sweep(conformance.Config{Machine: m, Level: conformance.Quick})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		confRep.WallSeconds = time.Since(start).Seconds()
		rep.Conformance = confRep
		fmt.Printf("conformance quick: %d points, %d checks, %d violations, wall=%0.3fs\n",
			confRep.Points, confRep.Checks, len(confRep.Violations), confRep.WallSeconds)
		if !confRep.Ok() {
			for _, v := range confRep.Violations {
				fmt.Fprintln(os.Stderr, "  "+v.String())
			}
			os.Exit(1)
		}
	}

	// Scaling curves: the efficiency-vs-p rows committed with the report
	// and gated against the baseline in CI.
	scalingOK := true
	{
		start := time.Now()
		curves, err := scalingCurves(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep.ScalingCurves = curves
		fmt.Printf("scaling curves: %d rows, wall=%.3fs\n",
			len(curves), time.Since(start).Seconds())
		if *curvesOut != "" {
			if err := analytics.WriteCurves(*curvesOut, *mach, curves); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d curve rows)\n", *curvesOut, len(curves))
		}
		if *checkScaling != "" {
			scalingOK = gateScaling(curves, *checkScaling, *scalingTol)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", *out, len(rep.Runs))
	if !scalingOK {
		os.Exit(1)
	}
}
