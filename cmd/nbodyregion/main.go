// Command nbodyregion regenerates the Figure 4 execution-region diagrams of
// the data-replicating n-body algorithm:
//
//	-fig4a  energy vs (p, M) with constant-time contours and the
//	        minimum-energy line M0
//	-fig4b  feasible runs under an energy budget and a per-processor
//	        power budget
//	-fig4c  feasible runs under a time budget and a total power budget
//
// With no flags it renders all three. Budgets default to multiples of the
// optimum so every region is non-trivial, mirroring the paper's
// illustrative plots. A failed write to stdout exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"perfscale/internal/machine"
	"perfscale/internal/opt"
	"perfscale/internal/report"
)

func main() {
	var (
		fa     = flag.Bool("fig4a", false, "Figure 4(a): energy and time contours")
		fb     = flag.Bool("fig4b", false, "Figure 4(b): energy / per-proc power budgets")
		fc     = flag.Bool("fig4c", false, "Figure 4(c): time / total power budgets")
		csv    = flag.Bool("csv", false, "emit the raw grid as CSV")
		n      = flag.Float64("n", machine.IllustrativeN, "number of bodies")
		f      = flag.Float64("f", 10, "flops per interaction")
		pLo    = flag.Float64("plo", 6, "smallest processor count (paper axis: 6)")
		pHi    = flag.Float64("phi", 100, "largest processor count (paper axis: 100)")
		pCnt   = flag.Int("pcount", 48, "grid resolution in p")
		mCnt   = flag.Int("mcount", 24, "grid resolution in M")
		eMul   = flag.Float64("emax", 1.5, "energy budget as multiple of E*")
		ppMul  = flag.Float64("ppmax", 1.3, "per-proc power budget as multiple of power at M0, p median")
		tMul   = flag.Float64("tmax", 3, "time budget as multiple of fastest run at M0")
		tpMul  = flag.Float64("tpmax", 60, "total power budget as multiple of per-proc power at M0")
		mmFlag = flag.Bool("matmul", false, "render the matmul execution region instead (technical-report companion)")
	)
	flag.Parse()
	all := !*fa && !*fb && !*fc

	os.Exit(report.Output("nbodyregion", "", func(w *report.ErrWriter) int {
		if *mmFlag {
			renderMatMulRegion(w, *pCnt, *mCnt)
			return 0
		}

		pb := opt.NBody{M: machine.Illustrative(), N: *n, F: *f}
		grid := opt.NBodyRegionGrid(pb, *pLo, *pHi, *pCnt, *mCnt)

		w.Printf("n-body execution region: n=%s f=%g machine=%s\n",
			report.FormatFloat(*n), *f, pb.M.Name)
		w.Printf("M0 = %s words, E* = %s J, min-energy line spans p in [%s, %s]\n\n",
			report.FormatFloat(grid.M0), report.FormatFloat(grid.EStar),
			report.FormatFloat(pb.N/grid.M0), report.FormatFloat(pb.N*pb.N/(grid.M0*grid.M0)))

		if *csv {
			t := report.NewTable("", "p", "mem", "feasible", "energy", "time", "proc_power", "total_power", "on_m0_line")
			for _, c := range grid.Cells {
				t.AddRow(c.P, c.Mem, fmt.Sprintf("%v", c.Feasible), c.Energy, c.Time,
					c.ProcPower, c.TotalPower, fmt.Sprintf("%v", c.OnMinEnergyLine))
			}
			w.Printf("%s", t.CSV())
			return 0
		}

		budgets := opt.Budgets{
			EnergyMax:    *eMul * grid.EStar,
			ProcPowerMax: *ppMul * pb.ProcPower(grid.M0),
			TimeMax:      *tMul * pb.Time(pb.N*pb.N/(grid.M0*grid.M0), grid.M0),
			TotalPowMax:  *tpMul * pb.ProcPower(grid.M0),
		}

		if all || *fa {
			w.Println(renderRegion(grid, budgets, 'a'))
		}
		if all || *fb {
			w.Printf("budgets: Emax=%s J, per-proc Pmax=%s W\n",
				report.FormatFloat(budgets.EnergyMax), report.FormatFloat(budgets.ProcPowerMax))
			w.Println(renderRegion(grid, budgets, 'b'))
		}
		if all || *fc {
			w.Printf("budgets: Tmax=%s s, total Pmax=%s W\n",
				report.FormatFloat(budgets.TimeMax), report.FormatFloat(budgets.TotalPowMax))
			w.Println(renderRegion(grid, budgets, 'c'))
		}

		if all || *fa {
			printEnergyProfile(w, pb, grid)
		}
		return 0
	}))
}

// renderRegion draws the (p, M) plane: '.' infeasible, other marks per
// sub-figure semantics.
func renderRegion(g opt.Fig4Grid, b opt.Budgets, sub byte) string {
	var bld strings.Builder
	switch sub {
	case 'a':
		bld.WriteString("Figure 4(a): G = min-energy line (M0); 1-9 = time decile (1 fastest); '.' = infeasible\n")
	case 'b':
		bld.WriteString("Figure 4(b): E = within energy budget, P = within per-proc power, B = both, '-' = neither; '.' = infeasible\n")
	case 'c':
		bld.WriteString("Figure 4(c): T = within time budget, W = within total power, B = both, '-' = neither; '.' = infeasible\n")
	}
	// Time deciles for sub-figure a.
	var tMin, tMax float64 = math.Inf(1), math.Inf(-1)
	for _, c := range g.Cells {
		if c.Feasible {
			tMin = math.Min(tMin, c.Time)
			tMax = math.Max(tMax, c.Time)
		}
	}
	nP := len(g.PValues)
	for mi := len(g.MemValues) - 1; mi >= 0; mi-- {
		fmt.Fprintf(&bld, "M=%10s | ", report.FormatFloat(g.MemValues[mi]))
		for pi := 0; pi < nP; pi++ {
			c := g.Cells[mi*nP+pi]
			if !c.Feasible {
				bld.WriteByte('.')
				continue
			}
			switch sub {
			case 'a':
				if c.OnMinEnergyLine {
					bld.WriteByte('G')
				} else {
					frac := (math.Log(c.Time) - math.Log(tMin)) / (math.Log(tMax) - math.Log(tMin))
					bld.WriteByte(byte('1' + int(frac*8.999)))
				}
			case 'b':
				f := b.Classify(c)
				bld.WriteByte(regionMark(f.WithinEnergy, f.WithinProcPower))
			case 'c':
				f := b.Classify(c)
				bld.WriteByte(regionMark(f.WithinTime, f.WithinTotalPow))
			}
		}
		bld.WriteByte('\n')
	}
	fmt.Fprintf(&bld, "%14s +-%s\n", "", strings.Repeat("-", nP))
	fmt.Fprintf(&bld, "%14s   p from %s to %s\n", "",
		report.FormatFloat(g.PValues[0]), report.FormatFloat(g.PValues[nP-1]))
	return bld.String()
}

func regionMark(first, second bool) byte {
	switch {
	case first && second:
		return 'B'
	case first:
		return 'E' // or T for sub-figure c; single-letter of the first budget
	case second:
		return 'P' // or W
	default:
		return '-'
	}
}

// printEnergyProfile prints E(M) across the sampled memory rows — the
// vertical profile of Figure 4(a)'s surface, minimized at M0.
func printEnergyProfile(w *report.ErrWriter, pb opt.NBody, g opt.Fig4Grid) {
	t := report.NewTable("Energy vs memory (independent of p inside the region)",
		"M (words)", "E (J)", "E/E*")
	for _, mem := range g.MemValues {
		e := pb.Energy(mem)
		t.AddRow(mem, e, e/g.EStar)
	}
	w.Println(t.Render())
	var s report.Series
	s.Name = "E(M)"
	for _, mem := range g.MemValues {
		s.Add(mem, pb.Energy(mem))
	}
	w.Println(report.Chart("E(M): communication-dominated left of M0, memory-dominated right",
		60, 12, true, true, s))
}

// renderMatMulRegion draws the matmul counterpart of Figure 4(a): the
// wedge between the 2D limit M = n²/p and the 3D limit M = n²/p^(2/3),
// with the energy-optimal memory row marked.
func renderMatMulRegion(w *report.ErrWriter, pCnt, mCnt int) {
	pb := opt.MatMul{M: machine.Illustrative(), N: 1 << 14}
	g := opt.MatMulRegionGrid(pb, 64, 1<<16, pCnt, mCnt)
	w.Printf("matmul execution region: n=%s machine=%s\n", report.FormatFloat(pb.N), pb.M.Name)
	w.Printf("M* = %s words, E(M*) = %s J\n\n", report.FormatFloat(g.MStar), report.FormatFloat(g.EStar))
	w.Println("G = min-energy memory row; 1-9 = time decile (1 fastest); '.' = infeasible")
	var tMin, tMax float64 = math.Inf(1), math.Inf(-1)
	for _, c := range g.Cells {
		if c.Feasible {
			tMin = math.Min(tMin, c.Time)
			tMax = math.Max(tMax, c.Time)
		}
	}
	nP := len(g.PValues)
	for mi := len(g.MemValues) - 1; mi >= 0; mi-- {
		w.Printf("M=%10s | ", report.FormatFloat(g.MemValues[mi]))
		for pi := 0; pi < nP; pi++ {
			c := g.Cells[mi*nP+pi]
			switch {
			case !c.Feasible:
				w.Printf(".")
			case c.OnMinEnergyLine:
				w.Printf("G")
			default:
				frac := (math.Log(c.Time) - math.Log(tMin)) / (math.Log(tMax) - math.Log(tMin))
				w.Printf("%c", byte('1'+int(frac*8.999)))
			}
		}
		w.Println()
	}
	w.Printf("%14s +-%s\n", "", strings.Repeat("-", nP))
	w.Printf("%14s   p from %s to %s (log scale)\n", "",
		report.FormatFloat(g.PValues[0]), report.FormatFloat(g.PValues[nP-1]))
}
