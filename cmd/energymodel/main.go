// Command energymodel evaluates the paper's runtime and energy models for a
// chosen algorithm, machine and configuration, and answers the five
// optimization questions of the introduction:
//
//  1. minimum energy for a computation,
//  2. minimum energy within a runtime budget,
//  3. minimum runtime within an energy budget,
//  4. configurations under power budgets,
//  5. machine parameters for a target GFLOPS/W.
//
// Usage:
//
//	energymodel -alg matmul -machine jaketown -n 35000 -p 2
//	energymodel -alg nbody -machine illustrative -n 1e4 -p 20 -mem 2000 -questions
//	energymodel -alg strassen -n 8192 -p 49 -tmax 1e-2 -emax 5 -o answers.txt
//
// Output goes to stdout or the -o file; write failures exit non-zero.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/opt"
	"perfscale/internal/report"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		alg       = flag.String("alg", "matmul", "algorithm: matmul, strassen, lu, nbody, fft")
		mach      = flag.String("machine", "jaketown", "machine preset name or .json parameter file")
		n         = flag.Float64("n", 8192, "problem size (matrix dimension, bodies, or FFT length)")
		p         = flag.Float64("p", 16, "processor count")
		mem       = flag.Float64("mem", 0, "memory per processor in words (0 = n²/p for matmul, n/p for n-body)")
		f         = flag.Float64("f", 19, "n-body flops per interaction")
		tree      = flag.Bool("tree", true, "FFT: use the tree all-to-all")
		questions = flag.Bool("questions", false, "answer the Section V optimization questions")
		tmax      = flag.Float64("tmax", 0, "runtime budget in seconds for question 2 (0 = skip)")
		emax      = flag.Float64("emax", 0, "energy budget in joules for question 3 (0 = skip)")
		target    = flag.Float64("target", 75, "GFLOPS/W target for question 5")
		outPath   = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var r core.Result
	switch *alg {
	case "matmul":
		if *mem == 0 {
			*mem = *n * *n / *p
		}
		r = core.MatMulClassical(m, *n, *p, *mem)
	case "strassen":
		if *mem == 0 {
			*mem = *n * *n / *p
		}
		r = core.FastMatMul(m, *n, *p, *mem, bounds.OmegaStrassen)
	case "lu":
		if *mem == 0 {
			*mem = *n * *n / *p
		}
		r = core.LU(m, *n, *p, *mem)
	case "nbody":
		if *mem == 0 {
			*mem = *n / *p
		}
		r = core.NBody(m, *n, *p, *mem, *f)
	case "fft":
		r = core.FFT(m, *n, *p, *tree)
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		return 2
	}

	return report.Output("energymodel", *outPath, func(w *report.ErrWriter) int {
		w.Println(m.String())
		w.Println()
		printResult(w, *alg, *n, r)
		if !*questions && *tmax <= 0 && *emax <= 0 {
			return 0
		}
		switch *alg {
		case "nbody":
			answerNBody(w, m, *n, *f, *tmax, *emax, *target)
		case "matmul", "strassen":
			omega := 3.0
			if *alg == "strassen" {
				omega = bounds.OmegaStrassen
			}
			answerMatMul(w, m, *n, omega, *tmax, *emax)
		default:
			w.Println("optimization questions are implemented for matmul, strassen and nbody")
		}
		return 0
	})
}

func printResult(w *report.ErrWriter, alg string, n float64, r core.Result) {
	t := report.NewTable(fmt.Sprintf("%s: n=%s p=%s M=%s words", alg,
		report.FormatFloat(n), report.FormatFloat(r.P), report.FormatFloat(r.Mem)),
		"quantity", "value")
	t.AddRow("F per proc (flops)", r.Costs.Flops)
	t.AddRow("W per proc (words)", r.Costs.Words)
	t.AddRow("S per proc (messages)", r.Costs.Msgs)
	t.AddRow("T compute (s)", r.Time.Compute)
	t.AddRow("T bandwidth (s)", r.Time.Bandwidth)
	t.AddRow("T latency (s)", r.Time.Latency)
	t.AddRow("T total (s)", r.TotalTime())
	t.AddRow("E compute (J)", r.Energy.Compute)
	t.AddRow("E bandwidth (J)", r.Energy.Bandwidth)
	t.AddRow("E latency (J)", r.Energy.Latency)
	t.AddRow("E memory (J)", r.Energy.Memory)
	t.AddRow("E leakage (J)", r.Energy.Leakage)
	t.AddRow("E total (J)", r.TotalEnergy())
	t.AddRow("avg power (W)", r.AvgPower())
	t.AddRow("power/proc (W)", r.PowerPerProcessor())
	t.AddRow("GFLOPS/W", r.GFLOPSPerWatt())
	w.Println(t.Render())
}

func answerNBody(w *report.ErrWriter, m machine.Params, n, f, tmax, emax, target float64) {
	pb := opt.NBody{M: m, N: n, F: f}
	t := report.NewTable("Section V answers (n-body)", "question", "answer")
	m0 := pb.OptimalMemory()
	lo, hi := pb.MinEnergyProcRange()
	t.AddRow("Q1 optimal memory M0 (words)", m0)
	t.AddRow("Q1 minimum energy E* (J)", pb.MinEnergy())
	t.AddRow("Q1 E* attainable for p in", fmt.Sprintf("[%s, %s]", report.FormatFloat(lo), report.FormatFloat(hi)))
	if tmax > 0 {
		if cfg, e, err := pb.MinEnergyGivenTime(tmax); err == nil {
			t.AddRow(fmt.Sprintf("Q2 min E s.t. T<=%s", report.FormatFloat(tmax)),
				fmt.Sprintf("E=%s at p=%s M=%s", report.FormatFloat(e), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
		} else {
			t.AddRow("Q2", fmt.Sprintf("infeasible: %v", err))
		}
	}
	if emax > 0 {
		if cfg, tt, err := pb.MinTimeGivenEnergy(emax); err == nil {
			t.AddRow(fmt.Sprintf("Q3 min T s.t. E<=%s", report.FormatFloat(emax)),
				fmt.Sprintf("T=%s at p=%s M=%s", report.FormatFloat(tt), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
		} else {
			t.AddRow("Q3", fmt.Sprintf("infeasible: %v", err))
		}
	}
	pp := pb.ProcPower(m0)
	t.AddRow("Q4 power/proc at M0 (W)", pp)
	t.AddRow("Q4 procs within 100x that total power", pb.MaxProcsGivenTotalPower(100*pp, m0))
	t.AddRow("Q5 best-case efficiency (GFLOPS/W)", pb.Efficiency())
	t.AddRow(fmt.Sprintf("Q5 energy-param scale for %g GFLOPS/W", target), pb.EnergyScaleForTarget(target))
	t.AddRow("Q5 generations of halving needed", math.Ceil(math.Log2(1/pb.EnergyScaleForTarget(target))))
	w.Println(t.Render())
}

func answerMatMul(w *report.ErrWriter, m machine.Params, n, omega, tmax, emax float64) {
	pb := opt.MatMul{M: m, N: n, Omega: omega}
	t := report.NewTable("Section V answers (matmul, numeric)", "question", "answer")
	mStar := pb.OptimalMemory()
	t.AddRow("Q1 optimal memory M* (words)", mStar)
	t.AddRow("Q1 minimum energy (J)", pb.MinEnergy())
	t.AddRow("Q1 scaling range at M*", fmt.Sprintf("[%s, %s]",
		report.FormatFloat(pb.PMin(mStar)), report.FormatFloat(pb.PMax(mStar))))
	if tmax > 0 {
		if cfg, e, err := pb.MinEnergyGivenTime(tmax); err == nil {
			t.AddRow(fmt.Sprintf("Q2 min E s.t. T<=%s", report.FormatFloat(tmax)),
				fmt.Sprintf("E=%s at p=%s M=%s", report.FormatFloat(e), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
		} else {
			t.AddRow("Q2", fmt.Sprintf("infeasible: %v", err))
		}
	}
	if emax > 0 {
		if cfg, tt, err := pb.MinTimeGivenEnergy(emax); err == nil {
			t.AddRow(fmt.Sprintf("Q3 min T s.t. E<=%s", report.FormatFloat(emax)),
				fmt.Sprintf("T=%s at p=%s M=%s", report.FormatFloat(tt), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
		} else {
			t.AddRow("Q3", fmt.Sprintf("infeasible: %v", err))
		}
	}
	t.AddRow("Q4 power/proc at M* (W)", pb.ProcPower(mStar))
	t.AddRow("Q5 best-case efficiency (GFLOPS/W)", pb.Efficiency())
	w.Println(t.Render())
}
