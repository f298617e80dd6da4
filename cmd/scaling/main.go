// Command scaling regenerates the strong-scaling artifacts:
//
//	-fig3      Figure 3 — limits of communication strong scaling
//	           (classical vs Strassen-like, W·p against p)
//	-perfect   Experiment E2 — perfect strong scaling of 2.5D matmul:
//	           model sweep plus real simulator runs
//	-strassen  Experiment E4 — Strassen/CAPS model sweep plus simulator runs
//	-threeD    Experiment E3 — energy along the 3D limit (Eq. 11)
//	-weak      E22 — weak scaling at constant energy per flop (closed form)
//	-rect      tight rectangular (m×k×n) matmul bounds — aspect-ratio regime
//	           map plus live rectangular SUMMA runs against the bound
//	-curves    measured efficiency-vs-p curves (strong + weak families) on
//	           the live simulator, with closed-form predictions and the
//	           predicted perfect-scaling plateau end per row
//
// With no flags it runs everything except -curves. Output goes to stdout
// or the -o file; write failures exit non-zero.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"perfscale/internal/analytics"
	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/report"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig3    = flag.Bool("fig3", false, "Figure 3: strong-scaling limits")
		perfect = flag.Bool("perfect", false, "E2: 2.5D matmul perfect scaling")
		strass  = flag.Bool("strassen", false, "E4: Strassen energy scaling")
		threeD  = flag.Bool("threeD", false, "E3: 3D-limit energy tradeoff")
		weak    = flag.Bool("weak", false, "E22: weak scaling at constant energy per flop")
		rect    = flag.Bool("rect", false, "rectangular matmul bounds: regime map plus live SUMMA runs vs bound")
		curves  = flag.Bool("curves", false, "measured efficiency-vs-p curves (strong + weak)")
		csv     = flag.Bool("csv", false, "emit CSV instead of text tables")
		mach    = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		outPath = flag.String("o", "", "output file (default stdout)")
		fig3N   = flag.Float64("fig3-n", 65536, "Figure 3 matrix dimension")
		fig3Mem = flag.Float64("fig3-mem", 1<<24, "Figure 3 memory per processor (words)")
		fig3Pts = flag.Int("fig3-points", 25, "Figure 3 sample count")
	)
	flag.Parse()
	all := !*fig3 && !*perfect && !*strass && !*threeD && !*weak && !*rect && !*curves

	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	w, closeOut, err := report.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 1
	}
	emit := func(t *report.Table) {
		if *csv {
			w.Printf("%s", t.CSV())
		} else {
			w.Println(t.Render())
		}
	}

	code := 0
	if all || *fig3 {
		runFig3(w, emit, *fig3N, *fig3Mem, *fig3Pts, *csv)
	}
	if all || *perfect {
		runPerfect(emit, m)
	}
	if all || *strass {
		runStrassen(emit, m)
	}
	if all || *threeD {
		run3D(emit, m)
	}
	if all || *weak {
		runWeak(emit, m)
	}
	if all || *rect {
		if err := runRect(emit, m); err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			code = 1
		}
	}
	if *curves {
		if err := runCurves(emit, m); err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			code = 1
		}
	}
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "scaling: writing report:", err)
		code = 1
	}
	if err := closeOut(); err != nil {
		fmt.Fprintln(os.Stderr, "scaling: closing output:", err)
		code = 1
	}
	return code
}

// runCurves measures the quick strong+weak efficiency-vs-p curves on the
// live simulator — the same sweep the CI scaling gate runs.
func runCurves(emit func(*report.Table), m machine.Params) error {
	rows, err := analytics.QuickCurves(m)
	if err != nil {
		return err
	}
	t := report.NewTable("Efficiency-vs-p curves: measured vs closed-form prediction",
		"family", "algorithm", "n", "p", "c", "sim T (s)", "E (J)", "efficiency", "predicted", "E ratio", "plateau p*", "binding bound")
	for _, r := range rows {
		t.AddRow(r.Family, r.Algorithm, r.N, r.P, r.C, r.SimT, r.EnergyJ, r.Efficiency, r.Predicted, r.EnergyRatio,
			r.PlateauP, r.PlateauBound)
	}
	emit(t)
	return nil
}

// runRect reports the tight rectangular (m×k×n) lower bounds of Al Daas
// et al.: first the closed-form aspect-ratio regime map for a few shapes,
// then live rectangular SUMMA runs whose busiest-rank traffic is compared
// against the bound that applies at each grid.
func runRect(emit func(*report.Table), m machine.Params) error {
	t := report.NewTable("Rectangular matmul bounds: aspect-ratio regimes (Al Daas et al.)",
		"m", "k", "n", "one-large until p", "two-large until p", "regime at p=64", "bound W at p=64")
	for _, s := range [][3]float64{
		{4096, 64, 64},
		{4096, 4, 4096},
		{256, 1024, 64},
		{512, 512, 512},
	} {
		p1, p2 := bounds.RectRegimeBoundaries(s[0], s[1], s[2])
		wb, regime := bounds.RectMemIndepWords(s[0], s[1], s[2], 64)
		t.AddRow(s[0], s[1], s[2], report.FormatFloat(p1), report.FormatFloat(p2), regime.String(), wb)
	}
	emit(t)

	// Live runs: fixed rectangular shape, growing grid; the measured
	// busiest-rank words moved must sit above the applicable bound, and the
	// regime column names which form of it binds.
	const mDim, kDim, n, panel = 48, 16, 32, 4
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
	a := matrix.Random(mDim, kDim, 51)
	b := matrix.Random(kDim, n, 52)
	t2 := report.NewTable(fmt.Sprintf("Rectangular SUMMA, m=%d k=%d n=%d: measured vs lower bound", mDim, kDim, n),
		"grid", "p", "sim T (s)", "max W moved", "bound W", "regime")
	for _, g := range [][2]int{{1, 2}, {2, 2}, {2, 4}, {4, 4}} {
		pr, pc := g[0], g[1]
		res, err := matmul.SUMMARect(cost, pr, pc, panel, a, b)
		if err != nil {
			return fmt.Errorf("rect summa %dx%d: %w", pr, pc, err)
		}
		var moved float64
		for _, s := range res.Sim.PerRank {
			moved = math.Max(moved, s.WordsSent+s.WordsRecv)
		}
		wb, regime := bounds.RectMemIndepWords(float64(mDim), float64(kDim), float64(n), float64(pr*pc))
		t2.AddRow(fmt.Sprintf("%dx%d", pr, pc), pr*pc, res.Sim.Time(), moved, wb, regime.String())
	}
	emit(t2)
	return nil
}

func runWeak(emit func(*report.Table), m machine.Params) {
	mem := float64(1 << 22)
	ps := []float64{16, 64, 256, 1024, 4096}
	pts := core.MatMulWeakScalingSweep(m, mem, ps)
	t := report.NewTable("E22: memory-constrained weak scaling, matmul (M fixed, n = sqrt(M·p))",
		"p", "n", "T (s)", "E (J)", "E per flop (J)")
	for _, pt := range pts {
		n := mathSqrt(mem * pt.P)
		t.AddRow(pt.P, n, pt.Time, pt.Energy, pt.Energy/(n*n*n))
	}
	emit(t)
}

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

func runFig3(w *report.ErrWriter, emit func(*report.Table), n, mem float64, points int, csv bool) {
	pts := bounds.Fig3Series(n, mem, points)
	t := report.NewTable(fmt.Sprintf("Figure 3: W·p vs p (n=%s, M=%s)",
		report.FormatFloat(n), report.FormatFloat(mem)),
		"p", "classical W·p", "strassen W·p")
	var cs, ss report.Series
	cs.Name, ss.Name = "classical", "strassen-like"
	for _, pt := range pts {
		t.AddRow(pt.P, pt.ClassicalWP, pt.StrassenWP)
		cs.Add(pt.P, pt.ClassicalWP)
		ss.Add(pt.P, pt.StrassenWP)
	}
	emit(t)
	if !csv {
		w.Println(report.Chart("Figure 3 (log-log); flat region = perfect strong scaling",
			64, 16, true, true, cs, ss))
		cl, st := bounds.Fig3Plateaus(n, mem)
		w.Printf("classical: perfect scaling ends at p = %s; past it the %s bound binds\n",
			report.FormatFloat(cl.PEnd), cl.IndependentBound)
		w.Printf("strassen:  perfect scaling ends at p = %s; past it the %s bound binds\n\n",
			report.FormatFloat(st.PEnd), st.IndependentBound)
	}
}

func runPerfect(emit func(*report.Table), m machine.Params) {
	// Model sweep at scale.
	model := core.MatMulStrongScalingSweep(m, 1<<15, 64, 8)
	t := report.NewTable("E2 model: 2.5D matmul, n=32768, pmin=64, M fixed",
		"c", "p", "T (s)", "E (J)", "T·c/T1", "E/E1")
	for _, pt := range model {
		t.AddRow(pt.C, pt.P, pt.Time, pt.Energy,
			pt.Time*pt.C/model[0].Time, pt.Energy/model[0].Energy)
	}
	emit(t)

	// Simulator runs: fixed n and per-rank block size, p = 16, 32, 64.
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
	const n = 96
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	t2 := report.NewTable("E2 simulator: 2.5D matmul, n=96, q=4, c=1,2,4",
		"c", "p", "sim T (s)", "max W sent", "speedup", "ideal")
	var t1 float64
	for _, c := range []int{1, 2, 4} {
		res, err := matmul.TwoPointFiveD(cost, 4, c, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if c == 1 {
			t1 = res.Sim.Time()
		}
		t2.AddRow(c, 16*c, res.Sim.Time(), res.Sim.MaxStats().WordsSent, t1/res.Sim.Time(), c)
	}
	emit(t2)
}

func runStrassen(emit func(*report.Table), m machine.Params) {
	model := core.FastMatMulStrongScalingSweep(m, 1<<15, 49, 6, bounds.OmegaStrassen)
	t := report.NewTable("E4 model: Strassen (CAPS), n=32768, pmin=49, M fixed",
		"c", "p", "T (s)", "E (J)", "E/E1")
	for _, pt := range model {
		t.AddRow(pt.C, pt.P, pt.Time, pt.Energy, pt.Energy/model[0].Energy)
	}
	emit(t)

	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
	const n = 56
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)
	t2 := report.NewTable("E4 simulator: CAPS, n=56", "k", "p", "sim T (s)", "total flops", "max W sent")
	for _, k := range []int{0, 1, 2} {
		res, err := strassen.CAPS(cost, k, a, b, 8)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p := 1
		for i := 0; i < k; i++ {
			p *= 7
		}
		t2.AddRow(k, p, res.Sim.Time(), res.Sim.TotalStats().Flops, res.Sim.MaxStats().WordsSent)
	}
	emit(t2)
}

func run3D(emit func(*report.Table), m machine.Params) {
	n := float64(1 << 14)
	ps := []float64{64, 256, 1024, 4096, 16384}
	rs := core.MatMul3DLimitSweep(m, n, ps)
	t := report.NewTable("E3: energy at the 3D limit M = n²/p^(2/3), n=16384",
		"p", "E memory (J)", "E bandwidth (J)", "E total (J)", "Eq.11 check")
	for _, r := range rs {
		t.AddRow(r.P, r.Energy.Memory, r.Energy.Bandwidth, r.TotalEnergy(),
			core.MatMul3DEnergyClosedForm(m, n, r.P))
	}
	emit(t)
}
