package main

import (
	"fmt"
	"os"

	"perfscale/internal/analytics"
	"perfscale/internal/machine"
)

// scalingCurves measures the quick strong+weak efficiency-vs-p sweep — the
// rows BENCH_sim.json commits and the CI scaling gate compares against its
// baseline.
func scalingCurves(m machine.Params) ([]analytics.CurvePoint, error) {
	rows, err := analytics.QuickCurves(m)
	if err != nil {
		return nil, fmt.Errorf("scaling curves: %w", err)
	}
	return rows, nil
}

// gateScaling compares measured curves against the committed baseline and
// reports whether the gate passes; every regression is printed to stderr.
func gateScaling(curves []analytics.CurvePoint, baselinePath string, tol float64) bool {
	base, err := analytics.LoadCurves(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling gate:", err)
		return false
	}
	regs := analytics.CheckCurves(curves, base, tol)
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "SCALING REGRESSION:", r.String())
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "scaling gate: %d regressions against %s (tolerance %g)\n",
			len(regs), baselinePath, tol)
		return false
	}
	fmt.Printf("scaling gate: %d rows within tolerance %g of %s\n", len(curves), tol, baselinePath)
	return true
}
