// Command powerprofile runs a distributed algorithm with an event-bus
// collector subscribed and reports what the paper's average-power analysis
// cannot see: the time-resolved machine power (peak vs average), the
// critical path through the message graph, and per-rank utilization.
//
// Usage:
//
//	powerprofile -alg matmul -machine simdefault -n 96 -c 2
//	powerprofile -alg nbody -n 256 -p 16 -c 2 -o profile.txt
//
// Output goes to stdout or the -o file; write failures exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"

	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/report"
	"perfscale/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		alg     = flag.String("alg", "matmul", "algorithm: matmul, nbody")
		mach    = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		n       = flag.Int("n", 96, "problem size")
		p       = flag.Int("p", 16, "ranks (n-body)")
		q       = flag.Int("q", 4, "grid size (matmul)")
		c       = flag.Int("c", 2, "replication factor")
		buckets = flag.Int("buckets", 48, "power profile resolution")
		outPath = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, col, code := simulate(m, *alg, *n, *p, *q, *c)
	if code != 0 {
		return code
	}
	return report.Output("powerprofile", *outPath, func(w *report.ErrWriter) int {
		return profile(w, m, *alg, res, col, *buckets)
	})
}

// simulate runs alg with a collector subscribed; a non-zero code is the
// command's exit status.
func simulate(m machine.Params, alg string, n, p, q, c int) (*sim.Result, *obs.Collector, int) {
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords)}
	switch alg {
	case "matmul":
		col := obs.NewCollector(q * q * c)
		cost.Observers = []sim.Observer{col}
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		run, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return nil, nil, 1
		}
		return run.Sim, col, 0
	case "nbody":
		col := obs.NewCollector(p)
		cost.Observers = []sim.Observer{col}
		bodies := nbody.RandomBodies(n, 3)
		run, err := nbody.Replicated(cost, p, c, bodies)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return nil, nil, 1
		}
		return run.Sim, col, 0
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", alg)
		return nil, nil, 2
	}
}

func profile(w *report.ErrWriter, m machine.Params, alg string, res *sim.Result, col *obs.Collector, buckets int) int {
	w.Printf("%s on %s: simulated T = %s s\n\n", alg, m.Name, report.FormatFloat(res.Time()))

	// Critical path.
	path := obs.CriticalPath(col)
	bd := obs.PathBreakdown(path)
	t := report.NewTable("Critical path (the chain that sets the runtime)",
		"component", "seconds", "share")
	total := res.Time()
	for _, k := range []obs.Kind{obs.KindCompute, obs.KindSend, obs.KindWait, obs.KindRecv} {
		if bd[k] > 0 {
			t.AddRow(k.String(), bd[k], fmt.Sprintf("%.1f%%", 100*bd[k]/total))
		}
	}
	t.AddRow("segments on path", len(path), "")
	w.Println(t.Render())

	// Utilization.
	u := obs.Utilization(col, res.Time())
	lo, hi, avg := 1.0, 0.0, 0.0
	for _, v := range u {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		avg += v
	}
	avg /= float64(len(u))
	w.Printf("utilization: min %.0f%%  avg %.0f%%  max %.0f%% across %d ranks\n\n",
		100*lo, 100*avg, 100*hi, len(u))

	// Timeline.
	w.Println(obs.RenderGantt(col, res.Time(), 72))

	// Power profile.
	prof, err := obs.NewPowerProfile(m, res, col, buckets)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var s report.Series
	s.Name = "machine power (W)"
	for i, pw := range prof.Power {
		s.Add(prof.BucketStart[i], pw)
	}
	w.Println(report.Chart("Power over time", 60, 12, false, false, s))
	w.Printf("peak %s W, average %s W (E/T), static floor %s W\n",
		report.FormatFloat(prof.Peak), report.FormatFloat(prof.Avg), report.FormatFloat(prof.StaticPower))
	w.Printf("peak/average = %.2f — the paper's P = E/T underestimates the cap a real machine needs by this factor\n",
		prof.Peak/prof.Avg)
	return 0
}
