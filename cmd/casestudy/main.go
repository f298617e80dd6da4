// Command casestudy regenerates the Section VI artifacts:
//
//	-table1  the Jaketown model parameters, derived vs printed
//	-table2  the device survey with recomputed γt, γe and GFLOPS/W
//	-fig6    efficiency under independent scaling of γe, βe, δe
//	-fig7    efficiency under joint scaling (the 75 GFLOPS/W trajectory)
//
// With no flags it prints everything. A failed write to stdout exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"perfscale/internal/casestudy"
	"perfscale/internal/machine"
	"perfscale/internal/report"
)

func main() {
	var (
		t1   = flag.Bool("table1", false, "Table I parameters")
		t2   = flag.Bool("table2", false, "Table II device survey")
		f6   = flag.Bool("fig6", false, "Figure 6 independent scaling")
		f7   = flag.Bool("fig7", false, "Figure 7 joint scaling")
		gens = flag.Int("generations", 8, "process generations to sweep")
		csv  = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()
	all := !*t1 && !*t2 && !*f6 && !*f7

	os.Exit(report.Output("casestudy", "", func(w *report.ErrWriter) int {
		if all || *t1 {
			t := report.NewTable("Table I: Jaketown model parameters (derived vs printed)",
				"parameter", "derived", "printed", "rel err")
			for _, r := range casestudy.Table1() {
				rel := 0.0
				if r.Printed != 0 {
					rel = (r.Derived - r.Printed) / r.Printed
				}
				t.AddRow(r.Name, r.Derived, r.Printed, rel)
			}
			w.Emit(t, *csv)
		}

		if all || *t2 {
			t := report.NewTable("Table II: device survey (derived columns recomputed)",
				"device", "peak GFLOP/s", "gamma_t (s/flop)", "gamma_e (J/flop)", "GFLOPS/W", "eff err")
			for _, r := range casestudy.Table2() {
				t.AddRow(r.Device.Name, r.PeakGFLOPS, r.GammaT, r.GammaE, r.GFLOPSPerW, r.EffErr)
			}
			w.Emit(t, *csv)
		}

		if all || *f6 {
			t := report.NewTable(fmt.Sprintf(
				"Figure 6: GFLOPS/W of 2.5D matmul (n=%d, p=%d) halving one parameter per generation",
				casestudy.CaseN, casestudy.CaseP),
				"generation", "scale gamma_e", "scale beta_e", "scale delta_e")
			pts := casestudy.Fig6(*gens)
			byGen := map[int]map[machine.EnergyField]float64{}
			for _, p := range pts {
				if byGen[p.Generation] == nil {
					byGen[p.Generation] = map[machine.EnergyField]float64{}
				}
				byGen[p.Generation][p.Field] = p.Efficiency
			}
			series := make([]report.Series, 3)
			for i, f := range casestudy.Fig6Fields {
				series[i].Name = f.String()
			}
			for g := 0; g <= *gens; g++ {
				row := byGen[g]
				t.AddRow(g, row[machine.FieldGammaE], row[machine.FieldBetaE], row[machine.FieldDeltaE])
				for i, f := range casestudy.Fig6Fields {
					series[i].Add(float64(g), row[f])
				}
			}
			w.Emit(t, *csv)
			if !*csv {
				w.Println(report.Chart("Figure 6 (y = GFLOPS/W)", 50, 12, false, false, series...))
				for _, f := range casestudy.Fig6Fields {
					w.Printf("saturation limit scaling only %s: %s GFLOPS/W\n",
						f, report.FormatFloat(casestudy.SaturationEfficiency(f)))
				}
				w.Println()
			}
		}

		if all || *f7 {
			t := report.NewTable("Figure 7: GFLOPS/W halving gamma_e, beta_e, delta_e together",
				"generation", "improvement multiplier", "GFLOPS/W")
			var s report.Series
			s.Name = "joint scaling"
			for _, p := range casestudy.Fig7(*gens) {
				t.AddRow(p.Generation, p.Multiplier, p.Efficiency)
				s.Add(float64(p.Generation), p.Efficiency)
			}
			w.Emit(t, *csv)
			if !*csv {
				w.Println(report.Chart("Figure 7 (y = GFLOPS/W)", 50, 12, false, false, s))
				g := casestudy.GenerationsToTarget(75, *gens+5)
				w.Printf("75 GFLOPS/W reached after %d generations (paper: ~5)\n", g)
			}
		}
		return 0
	}))
}
