package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"perfscale/internal/conformance"
	"perfscale/internal/machine"
	"perfscale/internal/matrix"
)

// Each gate must pass the true value and catch a perturbed one.

func TestSimPinCatchesEachPerturbedField(t *testing.T) {
	pin := newMatmulShift().pin
	if err := pin.compare(pin); err != nil {
		t.Fatalf("pin rejects itself: %v", err)
	}
	perturb := []func(*simPin){
		func(p *simPin) { p.T *= 1 + 1e-6 },
		func(p *simPin) { p.E *= 1 - 1e-6 },
		func(p *simPin) { p.F++ },
		func(p *simPin) { p.W++ },
		func(p *simPin) { p.S++ },
		func(p *simPin) { p.M-- },
		func(p *simPin) { p.ActivePairs++ },
	}
	for i, f := range perturb {
		got := pin
		f(&got)
		if pin.compare(got) == nil {
			t.Errorf("perturbation %d passed the pin: %+v", i, got)
		}
	}
}

func TestMatmulPinsHoldForAnySeed(t *testing.T) {
	w := newMatmulKernel()
	for _, seed := range []int64{1, 99} {
		if err := w.setup(seed, 1); err != nil {
			t.Fatal(err)
		}
		out := newOutcome()
		w.call(nil, nil, out)
		if out.failed != 0 || !out.correct {
			t.Fatalf("seed %d: %v", seed, out.failures)
		}
	}
}

func TestFreivaldsCatchesPerturbedProduct(t *testing.T) {
	a, b := matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)
	c := matrix.Mul(a, b)
	if err := freivalds(a, b, c, 3); err != nil {
		t.Fatalf("true product rejected: %v", err)
	}
	c.Set(17, 42, c.At(17, 42)+1e-9)
	if freivalds(a, b, c, 3) == nil {
		t.Fatal("product perturbed by 1e-9 passed")
	}
	c.Set(17, 42, math.NaN())
	if freivalds(a, b, c, 3) == nil {
		t.Fatal("NaN in the product passed")
	}
}

// reply marshals v after letting edit change one field.
func reply(t *testing.T, v map[string]any, edit func(map[string]any)) []byte {
	t.Helper()
	if edit != nil {
		edit(v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPriceCheckCatchesPerturbedReply(t *testing.T) {
	m := machine.SimDefault()
	for _, alg := range priceAlgs {
		r := mixRequest{kind: "price", alg: alg, n: 4096, p: 64}
		want, mem := r.expectPrice(m)
		good := func() map[string]any {
			return map[string]any{"mem_words": mem, "total_time_s": want.TotalTime(), "total_energy_j": want.TotalEnergy()}
		}
		if err := r.checkReply(m, reply(t, good(), nil)); err != nil {
			t.Fatalf("%s: true reply rejected: %v", alg, err)
		}
		for _, field := range []string{"mem_words", "total_time_s", "total_energy_j"} {
			bad := reply(t, good(), func(v map[string]any) { v[field] = v[field].(float64) * (1 + 1e-15) })
			if r.checkReply(m, bad) == nil {
				t.Errorf("%s: perturbed %s passed", alg, field)
			}
		}
	}
}

func TestOptimizeCheckCatchesPerturbedReply(t *testing.T) {
	m := machine.SimDefault()
	for _, r := range []mixRequest{
		{kind: "optimize", alg: "matmul", n: 8192, objective: "min_energy"},
		{kind: "optimize", alg: "nbody", n: 8192, objective: "min_energy_given_time",
			budget: 2 * minEnergyTime(m, "nbody", 8192)},
		{kind: "optimize", alg: "matmul", n: 8192, objective: "min_energy_given_time",
			budget: 1.5 * minEnergyTime(m, "matmul", 8192)},
	} {
		want, err := r.expectOptimize(m)
		if err != nil {
			t.Fatalf("%+v: budget infeasible: %v", r, err)
		}
		good := func() map[string]any {
			return map[string]any{"p": want.P, "mem_words": want.MemWords, "energy_j": want.EnergyJ}
		}
		if err := r.checkReply(m, reply(t, good(), nil)); err != nil {
			t.Fatalf("%+v: true reply rejected: %v", r, err)
		}
		bad := reply(t, good(), func(v map[string]any) { v["energy_j"] = want.EnergyJ * 1.001 })
		if r.checkReply(m, bad) == nil {
			t.Errorf("%+v: perturbed energy passed", r)
		}
	}
}

func TestSimulateCheckCatchesPerturbedReply(t *testing.T) {
	m := machine.SimDefault()
	r := mixRequest{kind: "simulate"}
	good := func() map[string]any {
		p := simulatePin
		return map[string]any{
			"sim_time_s": p.T, "total_energy_j": p.E, "active_pairs": p.ActivePairs,
			"max_stats": map[string]any{"Flops": p.F, "WordsSent": p.W, "MsgsSent": p.S, "PeakMemWords": p.M},
		}
	}
	if err := r.checkReply(m, reply(t, good(), nil)); err != nil {
		t.Fatalf("true reply rejected: %v", err)
	}
	bad := reply(t, good(), func(v map[string]any) { v["active_pairs"] = simulatePin.ActivePairs + 1 })
	if r.checkReply(m, bad) == nil {
		t.Error("perturbed active_pairs passed")
	}
	if r.checkReply(m, []byte("{not json")) == nil {
		t.Error("unparseable reply passed")
	}
}

// A refused request is a failure but not a wrong answer; a 200 with a
// wrong value is both.
func TestJudgeAndTally(t *testing.T) {
	m := machine.SimDefault()
	p1 := mixRequest{kind: "price", alg: "matmul", n: 1024, p: 1, path: "/price?alg=matmul&n=1024&p=1"}
	ok := mixRequest{kind: "price", alg: "fft", n: 1024, p: 4}
	want, mem := ok.expectPrice(m)
	goodBody := reply(t, map[string]any{"mem_words": mem, "total_time_s": want.TotalTime(), "total_energy_j": want.TotalEnergy()}, nil)
	wrongBody := reply(t, map[string]any{"mem_words": mem, "total_time_s": 2 * want.TotalTime(), "total_energy_j": want.TotalEnergy()}, nil)

	result := func(r mixRequest, status int, body []byte, err error) reqResult {
		res := reqResult{status: status}
		res.err, res.wrong = judge(m, r, status, body, err)
		return res
	}
	ph := &phase{
		reqs: []mixRequest{p1, ok, ok, ok},
		results: []reqResult{
			result(p1, http.StatusBadRequest, []byte(`{"error":"bad_request"}`), nil),
			result(ok, http.StatusOK, goodBody, nil),
			result(ok, http.StatusTooManyRequests, nil, nil),
			result(ok, 0, nil, errors.New("connection reset")),
		},
	}
	out, fails := newOutcome(), map[string]int{}
	ph.tally(out, true, fails)
	if out.attempted != 4 || out.failed != 3 || !out.correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4, 3, true", out.attempted, out.failed, out.correct)
	}
	if fails["price alg=matmul p=1 400"] != 1 {
		t.Errorf("p=1 failure not keyed: %v", fails)
	}

	ph.results[1] = result(ok, http.StatusOK, wrongBody, nil)
	out = newOutcome()
	ph.tally(out, true, map[string]int{})
	if out.correct || out.failed != 4 {
		t.Fatalf("wrong value: correct %v failed %d, want false, 4", out.correct, out.failed)
	}
	// Uncounted (sweep) phases still flag a wrong value.
	out = newOutcome()
	ph.tally(out, false, map[string]int{})
	if out.correct || out.attempted != 0 || out.failed != 0 {
		t.Fatalf("uncounted phase: %+v", out)
	}
}

func TestCheckSweepGate(t *testing.T) {
	if wrong, err := checkSweep(&conformance.Report{}, nil); err != nil || wrong {
		t.Fatalf("clean report rejected: %v", err)
	}
	bad := &conformance.Report{Violations: []conformance.Violation{{Property: "closed-form", Algorithm: "cannon"}}}
	if wrong, err := checkSweep(bad, nil); err == nil || !wrong {
		t.Fatal("report with a violation passed")
	}
	if wrong, err := checkSweep(&conformance.Report{}, errors.New("interrupted")); err == nil || wrong {
		t.Fatal("sweep error passed or counted as a wrong value")
	}
}

func TestMixIsSeededAndShaped(t *testing.T) {
	m := machine.SimDefault()
	a, b := genMix(m, 7, 5000), genMix(m, 7, 5000)
	kinds := map[string]int{}
	seeds := map[int64]bool{}
	p1 := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs for the same seed", i)
		}
		kinds[a[i].kind]++
		if a[i].kind == "simulate" {
			if seeds[a[i].seed] {
				t.Fatalf("simulate seed %d repeats", a[i].seed)
			}
			seeds[a[i].seed] = true
		}
		if a[i].kind == "price" && a[i].p == 1 {
			p1++
		}
	}
	if kinds["price"] < 3800 || kinds["optimize"] < 850 || kinds["simulate"] < 20 {
		t.Errorf("mix shape %v, want ≈80/19/1%%", kinds)
	}
	if p1 == 0 {
		t.Error("the mix lost its p=1 /price requests")
	}
	if c := genMix(m, 8, 50); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds gave the same requests")
	}
}

func TestSummaryTail(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	// 20 samples: the 10th smallest has exactly ten beyond it.
	if s.N != 20 || s.Median != 10.5 || s.Tail != 10 || s.TailPct != 50 {
		t.Fatalf("summary %+v", s)
	}
	if s := summarize(xs[:10]); s.TailPct != 0 {
		t.Fatalf("ten samples cannot have a tail with ten beyond it: %+v", s)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := &span{ID: 1, Start: 0, End: 100}
	kids := []*span{
		{Start: 10, End: 30}, {Start: 20, End: 40}, // overlap: 30 covered
		{Start: 90, End: 150}, // clipped to the parent: 10 covered
	}
	if got := covered(parent, kids) * 1e9; math.Abs(got-40) > 1e-6 {
		t.Fatalf("covered %g ns, want 40", got)
	}
	tr := newTracer()
	root := tr.start(nil, 5, "bench", "root")
	child := tr.start(root, 0, "sim", "child")
	tr.end(child, map[string]float64{"msgs": 3})
	tr.end(root, nil)
	if child.Req != 5 || child.Parent != root.ID {
		t.Fatalf("child span %+v does not inherit the request id and parent", child)
	}
	lt := tr.layerTimes()
	if lt["bench"].SelfS > lt["bench"].TotalS-lt["sim"].TotalS+1e-9 {
		t.Errorf("self time %+v ignores the child", lt)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out strings.Builder
	if err := mainErr([]string{"--workload", "nope"}, &out); err == nil || out.Len() != 0 {
		t.Fatalf("unknown workload: err %v, output %q", err, out.String())
	}
}

// The open loop against a live server, traced: every reply is judged,
// the only failures are the known p = 1 rejections, and every request
// has its span.
func TestOpenLoopTracedAgainstServer(t *testing.T) {
	s := startServer()
	defer s.close()
	if err := warmUp(s); err != nil {
		t.Fatal(err)
	}
	reqs := genMix(s.m, 3, 120)
	tr := newTracer()
	root := tr.start(nil, 0, "bench", "test")
	ph := s.openLoop(reqs, 400, tr, root)
	tr.end(root, nil)
	out, fails := newOutcome(), map[string]int{}
	ph.tally(out, true, fails)
	if !out.correct {
		t.Fatalf("wrong values: %v", out.failures)
	}
	known := 0
	for _, r := range reqs {
		if r.kind == "price" && r.p == 1 && r.alg != "fft" {
			known++
		}
	}
	if out.failed != known {
		t.Fatalf("%d failures, want the %d p=1 rejections: %v", out.failed, known, fails)
	}
	spans := 0
	for _, kind := range []string{"price", "optimize", "simulate"} {
		spans += len(tr.named("GET /" + kind))
	}
	if spans != len(reqs) {
		t.Fatalf("%d request spans, want %d", spans, len(reqs))
	}
}
