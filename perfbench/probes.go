package main

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"perfscale/internal/machine"
	"perfscale/internal/matrix"
	"perfscale/internal/serve"
	"perfscale/internal/sim"
)

// Layer probes: direct calls into one module's public functions, each
// timed under a span, that give the per-layer metrics of a traced run.
// Every traced run makes all of them, so each workload's record carries
// every layer's cost measured in the same process; the shape-dependent
// ones use the workload's own p and block size.

// probeRepeats is how many spans each probe records; the metric is
// their median or their sum, as each probe says.
const probeRepeats = 3

// Fixed probe shapes: the ring-shift and broadcast probes isolate the
// engine path of matmul-shift and matmul-kernel at those workloads' grids
// and block sizes, whichever workload's traced run makes them.
const (
	shiftQ, shiftC, shiftNB = 64, 4, 4
	bcastQ, bcastC, bcastNB = 8, 2, 128
	timerFires              = 2    // timers fired by the timer probe
	defaultMixLen           = 2000 // serve-mix requests the probes replay
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; one that needs traffic the workload does not make
// (a cache ratio outside serve-mix, say) stays 0.
var perLayer = []struct{ name, unit string }{
	{"matrix.muladd_gflops", "GFLOP/s"},
	{"matrix.kernel_share", "fraction"},
	{"sim.startup_s", "s"},
	{"sim.shift_ns_per_msg", "ns"},
	{"sim.bcast_ns_per_msg", "ns"},
	{"sim.alloc_bytes_per_msg", "B"},
	{"sim.gc_cycles_per_call", "count"},
	{"sim.timer_fire_s", "s"},
	{"conformance.cpu_s", "s"},
	{"conformance.idle_frac", "fraction"},
	{"core.price_us", "us"},
	{"opt.optimize_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.outside_handler_frac", "fraction"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.shed_frac.cheap", "fraction"},
	{"serve.shed_frac.heavy", "fraction"},
	{"serve.gen_late_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// probeShape is the workload's rank count and block size.
type probeShape struct{ p, nb int }

// simulateShape is serve-mix's /simulate run (summa25d n=64, q=4, c=1).
// The workloads without a matmul shape of their own probe at it.
var simulateShape = probeShape{p: 16, nb: 16}

// layerMetrics is the per-layer metric set of a traced run. Metrics of a
// layer the workload does not reach through its own calls stay 0.
type layerMetrics struct {
	metrics map[string]metric
	// muladdSeconds is one isolated MulAdd at the workload's block size.
	muladdSeconds float64
}

// layerProbes runs every probe under a root span and returns the metrics
// with every per-layer name present. reqs is the serve-mix request
// sequence the core, opt and handler probes replay.
func layerProbes(tr *tracer, shape probeShape, m machine.Params, reqs []mixRequest) (*layerMetrics, error) {
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	root := tr.start(nil, 0, "bench", "layer-probes")
	defer tr.end(root, nil)
	lm := &layerMetrics{metrics: map[string]metric{}}
	for _, pl := range perLayer {
		lm.metrics[pl.name] = metric{0, pl.unit}
	}
	set := func(name string, v float64) { lm.metrics[name] = metric{v, lm.metrics[name].Unit} }

	// internal/matrix: 4e7 flops of MulAdd calls per span, ~30 ms of work.
	nb := shape.nb
	a, b, c := matrix.Random(nb, nb, 1), matrix.Random(nb, nb, 2), matrix.New(nb, nb)
	flops := matrix.MulFlops(nb, nb, nb)
	calls := max(1, int(4e7/flops))
	for i := 0; i < probeRepeats; i++ {
		sp := tr.start(root, 0, "matrix", "matrix.MulAdd")
		for j := 0; j < calls; j++ {
			matrix.MulAdd(c, a, b)
		}
		tr.end(sp, map[string]float64{"muladd_calls": float64(calls), "flops": float64(calls) * flops})
	}
	secs, n := tr.total("matrix.MulAdd", "muladd_calls")
	lm.muladdSeconds = secs / n
	set("matrix.muladd_gflops", n*flops/secs/1e9)

	// internal/sim: start-up, the ring-shift path, the large-broadcast
	// path and the virtual-timer path.
	startup := map[int]float64{}
	for _, p := range []int{shape.p, shiftQ * shiftQ * shiftC, bcastQ * bcastQ * bcastC} {
		if _, ok := startup[p]; ok {
			continue
		}
		name := fmt.Sprintf("sim.Run/noop/p=%d", p)
		for i := 0; i < probeRepeats; i++ {
			sp := tr.start(root, 0, "sim", name)
			_, err := sim.Run(p, cost, func(*sim.Rank) error { return nil })
			tr.end(sp, map[string]float64{"ranks": float64(p)})
			if err != nil {
				return nil, fmt.Errorf("startup probe: %w", err)
			}
		}
		startup[p] = median(tr.durations(name))
	}
	set("sim.startup_s", startup[shape.p])

	for _, probe := range []struct {
		name, metric string
		program      func() (int, func(*sim.Rank) error, error)
	}{
		{"sim.Comm.ShiftOwned", "sim.shift_ns_per_msg", shiftProgram},
		{"sim.Comm.BcastLarge", "sim.bcast_ns_per_msg", bcastProgram},
	} {
		p, fn, err := probe.program()
		if err != nil {
			return nil, err
		}
		var ns []float64
		for i := 0; i < probeRepeats; i++ {
			sp := tr.start(root, 0, "sim", probe.name)
			res, err := sim.Run(p, cost, fn)
			if err != nil {
				tr.end(sp, nil)
				return nil, fmt.Errorf("%s probe: %w", probe.name, err)
			}
			msgs := res.TotalStats().MsgsSent
			tr.end(sp, map[string]float64{"msgs": msgs})
			// The no-op start-up at the same p is not message cost.
			ns = append(ns, (sp.dur()-startup[p])/msgs*1e9)
		}
		set(probe.metric, median(ns))
	}

	sp := tr.start(root, 0, "sim", "sim.Rank.RecvTimeout")
	fired, err := timerProgram(cost)
	tr.end(sp, map[string]float64{"timers_fired": float64(fired)})
	if err != nil {
		return nil, err
	}
	set("sim.timer_fire_s", sp.dur()/float64(fired))

	// internal/core and internal/opt: the closed forms behind /price and
	// /optimize, called directly on the mix's tuples.
	for _, probe := range []struct{ kind, layer, name, metric string }{
		{"price", "core", "core.price", "core.price_us"},
		{"optimize", "opt", "opt.optimize", "opt.optimize_us"},
	} {
		var tuples []mixRequest
		for _, r := range reqs {
			if r.kind == probe.kind {
				tuples = append(tuples, r)
			}
		}
		for i := 0; i < probeRepeats; i++ {
			sp := tr.start(root, 0, probe.layer, probe.name)
			for _, r := range tuples {
				r.direct(m)
			}
			tr.end(sp, map[string]float64{"calls": float64(len(tuples))})
		}
		var us []float64
		for _, s := range tr.named(probe.name) {
			us = append(us, s.dur()/s.Counts["calls"]*1e6)
		}
		set(probe.metric, median(us))
	}

	// internal/serve: the handler alone, on the same request sequence,
	// with no network.
	hp50, hp99 := handlerReplay(tr, root, reqs)
	set("serve.handler_us", hp50)
	set("serve.handler_p99_us", hp99)
	return lm, nil
}

// addWorkload fills the metrics that come from the workload's own traced
// calls (spans named name): allocation and GC per call, CPU time and the
// idle share, and the tracing overhead against the untraced median runS.
func (lm *layerMetrics) addWorkload(tr *tracer, name string, runS float64, traced []float64) {
	var alloc, gcs, msgs, cpu, wall float64
	var cpus []float64
	spans := tr.named(name)
	for _, s := range spans {
		alloc += s.Counts["alloc_bytes"]
		gcs += s.Counts["gc_cycles"]
		msgs += s.Counts["msgs"]
		cpu += s.Counts["cpu_s"]
		wall += s.dur()
		cpus = append(cpus, s.Counts["cpu_s"])
	}
	if msgs > 0 {
		lm.metrics["sim.alloc_bytes_per_msg"] = metric{alloc / msgs, "B"}
	}
	if len(spans) > 0 {
		lm.metrics["sim.gc_cycles_per_call"] = metric{gcs / float64(len(spans)), "count"}
		lm.metrics["conformance.cpu_s"] = metric{median(cpus), "s"}
		lm.metrics["conformance.idle_frac"] = metric{1 - cpu/wall, "fraction"}
	}
	lm.metrics["trace.overhead_frac"] = metric{median(traced)/runS - 1, "fraction"}
}

// workloadCall times one workload call. In a traced run it records a span
// carrying fn's counts plus the call's CPU seconds, bytes allocated and GC
// cycles; the returned wall time excludes the MemStats reads.
func workloadCall(tr *tracer, parent *span, name string, fn func() map[string]float64) float64 {
	if tr == nil {
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	sp := tr.start(parent, 0, "workload", name)
	counts := fn()
	tr.end(sp, counts)
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	tr.count(sp, map[string]float64{"cpu_s": cpu,
		"alloc_bytes": float64(after.TotalAlloc - before.TotalAlloc),
		"gc_cycles":   float64(after.NumGC - before.NumGC)})
	return sp.dur()
}

// shiftProgram only calls ShiftOwned, on matmul-shift's grid row comms
// with its block size and its q/c − 1 shifts per rank.
func shiftProgram() (int, func(*sim.Rank) error, error) {
	p := shiftQ * shiftQ * shiftC
	grid, err := sim.NewGrid3D(shiftQ, shiftC, p)
	return p, func(r *sim.Rank) error {
		row, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		buf := make([]float64, shiftNB*shiftNB)
		for s := 0; s < shiftQ/shiftC-1; s++ {
			buf = row.ShiftOwned(buf, -1)
		}
		return nil
	}, err
}

// bcastProgram only calls BcastLarge, with matmul-kernel's grid, block
// size and panel roots on the row and column comms.
func bcastProgram() (int, func(*sim.Rank) error, error) {
	p := bcastQ * bcastQ * bcastC
	grid, err := sim.NewGrid3D(bcastQ, bcastC, p)
	return p, func(r *sim.Rank) error {
		rowC, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colC, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		row, col, layer := grid.Coords(r.ID())
		blk := make([]float64, bcastNB*bcastNB)
		panels := bcastQ / bcastC
		for s := 0; s < panels; s++ {
			t := layer*panels + s
			rowC.BcastLarge(t, pick(col == t, blk))
			colC.BcastLarge(t, pick(row == t, blk))
		}
		return nil
	}, err
}

func pick(cond bool, data []float64) []float64 {
	if cond {
		return data
	}
	return nil
}

// timerProgram fires timerFires virtual timers on two ranks: rank 0 waits
// with RecvTimeout for a message rank 1 only sends after rank 0 gives up,
// so each timer fires at quiescence. It returns the timers fired.
func timerProgram(cost sim.Cost) (int, error) {
	fired := 0
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		if r.ID() == 1 {
			r.Recv(0)
			return nil
		}
		for i := 0; i < timerFires; i++ {
			if _, out := r.RecvTimeout(1, 1e-3); out != sim.RecvTimedOut {
				return fmt.Errorf("timer probe: RecvTimeout returned %v, want a timeout", out)
			}
			fired++
		}
		r.Send(1, []float64{1})
		return nil
	})
	if err != nil {
		return fired, fmt.Errorf("timer probe: %w", err)
	}
	return fired, nil
}

// handlerReplay sends reqs straight into a fresh server's handler, one
// span per call sharing the request's id, and returns the p50 and p99 of
// the calls in microseconds.
func handlerReplay(tr *tracer, parent *span, reqs []mixRequest) (p50, p99 float64) {
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	var us []float64
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("GET", r.path, nil)
		sp := tr.start(parent, int64(i)+1, "serve", "serve.Handler")
		start := time.Now()
		h.ServeHTTP(rec, hreq)
		d := time.Since(start).Seconds()
		tr.end(sp, map[string]float64{"cache_hit": boolf(rec.Header().Get("X-Cache") == "hit")})
		us = append(us, d*1e6)
	}
	return percentile(us, 0.5), percentile(us, 0.99)
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
