package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// simPin is what one simulated run must report. Every value depends only
// on the shapes, never on the matrix entries, so it holds for every seed:
// the simulated time T, the priced energy E, the busiest rank's F/W/S/M
// and the number of wired rank pairs.
type simPin struct {
	T, E        float64
	F, W, S, M  float64
	ActivePairs int
}

// check compares a run against the pin: counters exactly, T and E to a
// relative 1e-9 so a platform that fuses multiply-adds still passes.
func (pin simPin) check(m machine.Params, res *sim.Result) error {
	ms := res.MaxStats()
	got := simPin{
		T: res.Time(), E: core.PriceSim(m, res).Total(),
		F: ms.Flops, W: ms.WordsSent, S: ms.MsgsSent, M: ms.PeakMemWords,
		ActivePairs: res.ActivePairs,
	}
	return pin.compare(got)
}

func (pin simPin) compare(got simPin) error {
	if !relEq(got.T, pin.T, 1e-9) || !relEq(got.E, pin.E, 1e-9) ||
		got.F != pin.F || got.W != pin.W || got.S != pin.S || got.M != pin.M ||
		got.ActivePairs != pin.ActivePairs {
		return fmt.Errorf("simulated statistics %+v, want %+v", got, pin)
	}
	return nil
}

func relEq(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// freivalds checks C = A·B in O(n²) per trial: for random ±1 vectors x,
// C·x must equal A·(B·x) to within rounding.
func freivalds(a, b, c *matrix.Dense, seed int64) error {
	n := a.Rows
	if c.Rows != n || c.Cols != b.Cols {
		return fmt.Errorf("product is %dx%d, want %dx%d", c.Rows, c.Cols, n, b.Cols)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, b.Cols)
	for trial := 0; trial < 2; trial++ {
		for i := range x {
			x[i] = float64(2*rng.Intn(2) - 1)
		}
		cx, abx := matVec(c, x), matVec(a, matVec(b, x))
		// A length-n dot product rounds by at most n·ε times the sum of
		// the magnitudes it adds; C, C·x and A·(B·x) each add one such
		// error, so 4·n·ε of |A|·|B|·|x| bounds the honest difference.
		scale := matVec(absOf(a), matVec(absOf(b), absVec(x)))
		for i := range cx {
			if d := math.Abs(cx[i] - abx[i]); !(d <= 4*float64(n)*epsilon*scale[i]) {
				return fmt.Errorf("Freivalds check failed at row %d: C·x = %g, A·(B·x) = %g", i, cx[i], abx[i])
			}
		}
	}
	return nil
}

const epsilon = 0x1p-52

func matVec(a *matrix.Dense, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := range y {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

func absOf(a *matrix.Dense) *matrix.Dense {
	out := matrix.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = math.Abs(v)
	}
	return out
}

func absVec(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Abs(v)
	}
	return out
}

// matmulWork is one of the two matmul workloads: the same sim stack, used
// the two ways round.
type matmulWork struct {
	fn      func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*matmul.RunResult, error)
	fnName  string
	n, q, c int
	pin     simPin
	// muladdPerCall is how many MulAdd calls one workload call makes:
	// one per rank per multiply step.
	muladdPerCall float64

	m         machine.Params
	cost      sim.Cost
	a, b      *matrix.Dense
	checkSeed int64
	seed      int64
	// msgs and flops are one call's simulated totals over all ranks.
	msgs, flops float64
}

// newMatmulShift is 2.5D Cannon at p = 16384 with 4×4 blocks: ~733k ring
// shift messages per call and a kernel under 5% of it, so the engine's
// per-message path does almost all the work.
func newMatmulShift() *matmulWork {
	return &matmulWork{
		fn: matmul.TwoPointFiveD, fnName: "matmul.TwoPointFiveD",
		n: 256, q: 64, c: 4, muladdPerCall: 64 * 64 * 4 * 16,
		pin: simPin{T: 5.6380000000000046e-05, E: 0.8127741996338096,
			F: 2060, W: 576, S: 51, M: 48, ActivePairs: 97788},
	}
}

// newMatmulKernel is 2.5D SUMMA at p = 128 with 128×128 blocks: 9,664
// large messages and 2.1 GFLOP of MulAdd per call, so the kernel is most
// of a call and the engine about a tenth.
func newMatmulKernel() *matmulWork {
	return &matmulWork{
		fn: matmul.TwoPointFiveDSUMMA, fnName: "matmul.TwoPointFiveDSUMMA",
		n: 1024, q: 8, c: 2, muladdPerCall: 8 * 8 * 2 * 4,
		pin: simPin{T: 0.018043623999999998, E: 2.2662421667866535,
			F: 1.6785408e+07, W: 184330, S: 85, M: 49152, ActivePairs: 1280},
	}
}

func (w *matmulWork) p() int  { return w.q * w.q * w.c }
func (w *matmulWork) nb() int { return w.n / w.q }

func (w *matmulWork) setup(seed int64, _ float64) error {
	w.m = machine.SimDefault()
	// Only the machine's γt/βt/αt: every other field keeps the default a
	// library caller gets.
	w.cost = sim.Cost{GammaT: w.m.GammaT, BetaT: w.m.BetaT, AlphaT: w.m.AlphaT}
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.a = matrix.Random(w.n, w.n, rng.Int63())
	w.b = matrix.Random(w.n, w.n, rng.Int63())
	w.checkSeed = rng.Int63()
	_, err := w.fn(w.cost, w.q, w.c, w.a, w.b)
	return err
}

func (w *matmulWork) close() {}

// call runs the workload once and applies both gates; it returns the
// call's wall seconds.
func (w *matmulWork) call(tr *tracer, parent *span, out *outcome) float64 {
	out.attempted++
	var res *matmul.RunResult
	var err error
	wall := workloadCall(tr, parent, w.fnName, func() map[string]float64 {
		res, err = w.fn(w.cost, w.q, w.c, w.a, w.b)
		if err != nil {
			return nil
		}
		tot := res.Sim.TotalStats()
		w.msgs, w.flops = tot.MsgsSent, tot.Flops
		return map[string]float64{"msgs": tot.MsgsSent, "flops": tot.Flops, "muladd_calls": w.muladdPerCall}
	})
	if err != nil {
		out.fail(false, "%s: %v", w.fnName, err)
		return wall
	}
	if err := w.pin.check(w.m, res.Sim); err != nil {
		out.fail(true, "%s: %v", w.fnName, err)
		return wall
	}
	if err := freivalds(w.a, w.b, res.C, w.checkSeed); err != nil {
		out.fail(true, "%s: %v", w.fnName, err)
	}
	return wall
}

// samples are the wall seconds and peak resident MB of each call.
type samples struct{ walls, rss []float64 }

// loop calls the workload until the given seconds have passed. Each call
// starts from a collected heap, so when the collector runs inside a call
// does not depend on what the calls before it left behind.
func (w *matmulWork) loop(seconds float64, tr *tracer, parent *span, out *outcome) samples {
	var sm samples
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		runtime.GC()
		resetPeakRSS()
		sm.walls = append(sm.walls, w.call(tr, parent, out))
		sm.rss = append(sm.rss, peakRSSMB())
	}
	return sm
}

func (w *matmulWork) run(seconds float64, tr *tracer, out *outcome) (report, error) {
	if tr == nil {
		sm := w.loop(seconds, nil, nil, out)
		walls := sm.walls
		runS := median(walls)
		// Every call sends and computes the same amounts (the pinned
		// shapes), so the rates follow from the median call.
		return report{
			metrics: map[string]metric{"run_s": {runS, "s"}, "peak_rss_mb": {median(sm.rss), "MB"}},
			detail: map[string]any{
				"run_s":            summarize(walls),
				"peak_rss_mb":      summarize(sm.rss),
				"run_s_samples":    walls,
				"sim_msgs_per_s":   w.msgs / runS,
				"sim_gflops_per_s": w.flops / runS / 1e9,
				"msgs_per_call":    w.msgs,
				"flops_per_call":   w.flops,
			},
		}, nil
	}

	plain := w.loop(seconds/2, nil, nil, out).walls
	root := tr.start(nil, 0, "bench", "traced-calls")
	traced := w.loop(seconds/2, tr, root, out).walls
	tr.end(root, nil)
	runS := median(plain)

	lp, err := layerProbes(tr, probeShape{p: w.p(), nb: w.nb()}, w.m, genMix(w.m, w.seed, defaultMixLen))
	if err != nil {
		return report{}, err
	}
	lp.addWorkload(tr, w.fnName, runS, traced)
	lp.metrics["matrix.kernel_share"] = metric{
		w.muladdPerCall * lp.muladdSeconds / (runS * float64(runtime.GOMAXPROCS(0))), "fraction"}
	return report{metrics: lp.metrics, detail: map[string]any{
		"run_s_untraced": summarize(plain), "run_s_traced": summarize(traced),
		"layers": tr.layerTimes(),
	}}, nil
}
