package main

import (
	"fmt"
	"runtime"
	"time"

	"perfscale/internal/conformance"
	"perfscale/internal/machine"
)

// conformance-quick is the quick conformance sweep, the only workload that
// arms virtual timers and runs fault plans, ARQ recovery, observers and
// campaign replay. Its inputs are fixed by the sweep itself; the seed only
// selects the serve-mix tuples its traced run's probes replay.
type conformanceQuick struct {
	m    machine.Params
	seed int64
}

func (cq *conformanceQuick) cfg() conformance.Config {
	return conformance.Config{Machine: cq.m, Level: conformance.Quick}
}

// checkSweep is the gate: the sweep must finish with no error and no
// violation. wrong reports a violation, a check the program failed, as
// opposed to a sweep that could not run.
func checkSweep(rep *conformance.Report, err error) (wrong bool, _ error) {
	if err != nil {
		return false, fmt.Errorf("conformance sweep: %w", err)
	}
	if !rep.Ok() {
		return true, fmt.Errorf("conformance sweep: %d violations, first: %v", len(rep.Violations), rep.Violations[0])
	}
	return false, nil
}

func (cq *conformanceQuick) setup(seed int64, _ float64) error {
	cq.m, cq.seed = machine.SimDefault(), seed
	_, err := checkSweep(conformance.Sweep(cq.cfg()))
	return err
}

func (cq *conformanceQuick) close() {}

func (cq *conformanceQuick) loop(seconds float64, tr *tracer, parent *span, out *outcome) (walls, cpus, rss []float64) {
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		runtime.GC()
		resetPeakRSS()
		out.attempted++
		var wrong bool
		var err error
		cpu := cpuSeconds()
		wall := workloadCall(tr, parent, "conformance.Sweep", func() map[string]float64 {
			rep, sweepErr := conformance.Sweep(cq.cfg())
			if wrong, err = checkSweep(rep, sweepErr); err != nil {
				return nil
			}
			return map[string]float64{"checks": float64(rep.Checks), "points": float64(rep.Points)}
		})
		if err != nil {
			out.fail(wrong, "%v", err)
		}
		walls, cpus = append(walls, wall), append(cpus, cpuSeconds()-cpu)
		rss = append(rss, peakRSSMB())
	}
	return walls, cpus, rss
}

func (cq *conformanceQuick) run(seconds float64, tr *tracer, out *outcome) (report, error) {
	if tr == nil {
		walls, cpus, rss := cq.loop(seconds, nil, nil, out)
		cpu, wall := median(cpus), median(walls)
		return report{
			metrics: map[string]metric{"run_s": {wall, "s"}, "peak_rss_mb": {median(rss), "MB"}},
			detail: map[string]any{
				"run_s": summarize(walls), "cpu_s": summarize(cpus), "idle_frac": 1 - cpu/wall,
				"peak_rss_mb": summarize(rss),
			},
		}, nil
	}
	plain, _, _ := cq.loop(seconds/2, nil, nil, out)
	root := tr.start(nil, 0, "bench", "traced-calls")
	traced, _, _ := cq.loop(seconds/2, tr, root, out)
	tr.end(root, nil)
	runS := median(plain)
	lp, err := layerProbes(tr, simulateShape, cq.m, genMix(cq.m, cq.seed, defaultMixLen))
	if err != nil {
		return report{}, err
	}
	lp.addWorkload(tr, "conformance.Sweep", runS, traced)
	return report{metrics: lp.metrics, detail: map[string]any{
		"run_s_untraced": summarize(plain), "run_s_traced": summarize(traced),
		"layers": tr.layerTimes(),
	}}, nil
}
