package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/nbody"
	"perfscale/internal/opt"
	"perfscale/internal/serve"
)

// serve-mix is an open loop against serve.New(serve.Options{}) over real
// HTTP: requests are sent on a fixed schedule whatever the server does,
// and each is timed from when it was due, so a stall also delays the
// requests queued behind it. It is the only workload through
// internal/serve, internal/core and internal/opt.
const (
	serveRate        = 500.0 // offered requests per second
	serveLimitS      = 0.010 // p99 limit for serve_max_rps
	serveConns       = 2     // client connections
	serveMaxInFlight = 256   // requests the generator lets wait for a connection
	sweepStepS       = 0.5   // seconds per step of the max-rate sweep
	// simulateMulAdds is MulAdd calls per /simulate run: summa25d at
	// q = 4, c = 1 makes 4 panel multiplies on each of 16 ranks.
	simulateMulAdds = 16 * 4
)

// sweepRates are the offered rates of the stepped max-rate sweep.
var sweepRates = []float64{1000, 1500, 2000, 3000, 4000, 6000, 8000}

// The mix: ≈80% /price, ≈19% /optimize, ≈1% /simulate. Tuples repeat:
// with 36 sizes, about 45% of a run's requests repeat an earlier tuple,
// so the response cache is both hit and missed. /simulate seeds never
// repeat.
var (
	priceAlgs    = []string{"matmul", "lu", "nbody", "fft"}
	priceMaxPow4 = 10 // p ∈ {1, 4, …, 4^10}
	mixNs        = sizes(1024, 36)
	optAlgs      = []string{"matmul", "nbody"}
	budgetScales = []float64{1.5, 2, 4}
)

// simulatePin is /simulate's summa25d at n = 64, q = 4, c = 1 on the
// simdefault machine; like the matmul pins it holds for every seed.
var simulatePin = simPin{T: 0.00010912000000000013, E: 0.0012410113340866563,
	F: 32768, W: 1926, S: 36, M: 768, ActivePairs: 96}

// mixRequest is one request of the mix with the tuple it was built from,
// so its reply can be checked against a direct call.
type mixRequest struct {
	kind           string // price, optimize or simulate
	path           string
	alg, objective string
	n, p, budget   float64
	seed           int64
}

// genMix draws count requests from seed.
func genMix(m machine.Params, seed int64, count int) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	simBase := rng.Int63n(1 << 40)
	reqs := make([]mixRequest, count)
	for i := range reqs {
		u := rng.Float64()
		var r mixRequest
		switch {
		case u < 0.80:
			r = mixRequest{kind: "price", alg: priceAlgs[rng.Intn(len(priceAlgs))],
				p: math.Pow(4, float64(rng.Intn(priceMaxPow4+1))), n: mixNs[rng.Intn(len(mixNs))]}
			r.path = "/price?" + url.Values{"alg": {r.alg}, "n": {fmtF(r.n)}, "p": {fmtF(r.p)}}.Encode()
		case u < 0.99:
			r = mixRequest{kind: "optimize", alg: optAlgs[rng.Intn(len(optAlgs))],
				n: mixNs[rng.Intn(len(mixNs))], objective: "min_energy"}
			q := url.Values{"alg": {r.alg}, "n": {fmtF(r.n)}}
			if rng.Intn(2) == 1 {
				r.objective = "min_energy_given_time"
				r.budget = budgetScales[rng.Intn(len(budgetScales))] * minEnergyTime(m, r.alg, r.n)
				q.Set("budget", fmtF(r.budget))
			}
			q.Set("objective", r.objective)
			r.path = "/optimize?" + q.Encode()
		default:
			r = mixRequest{kind: "simulate", alg: "summa25d", n: 64, seed: simBase + int64(i)}
			r.path = fmt.Sprintf("/simulate?alg=summa25d&n=64&q=4&c=1&seed=%d", r.seed)
		}
		reqs[i] = r
	}
	return reqs
}

// sizes returns step, 2·step, …, count·step.
func sizes(step float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = step * float64(i+1)
	}
	return out
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// minEnergyTime is the run time at the energy-optimal memory and the
// fewest processors that reach it; budgets are multiples of it, so every
// min_energy_given_time tuple is feasible.
func minEnergyTime(m machine.Params, alg string, n float64) float64 {
	if alg == "nbody" {
		pb := opt.NBody{M: m, N: n, F: nbody.FlopsPerPair}
		mem := pb.OptimalMemory()
		pLo, _ := pb.MinEnergyProcRange()
		return pb.Time(pLo, mem)
	}
	pb := opt.MatMul{M: m, N: n}
	mem := pb.OptimalMemory()
	return pb.Time(pb.PMin(mem), mem)
}

// sink keeps direct calls from being optimised away.
var sink float64

// direct makes the library call behind a /price or /optimize request.
func (r mixRequest) direct(m machine.Params) {
	switch r.kind {
	case "price":
		res, _ := r.expectPrice(m)
		sink += res.TotalTime()
	case "optimize":
		e, _ := r.expectOptimize(m)
		sink += e.EnergyJ
	}
}

// expectPrice is the direct core call on the request's tuple, with the
// memory default the service documents: n²/p^(2/3) for matmul and lu,
// n/√p for nbody.
func (r mixRequest) expectPrice(m machine.Params) (core.Result, float64) {
	switch r.alg {
	case "matmul", "lu":
		mem := r.n * r.n / math.Pow(r.p, 2.0/3.0)
		if r.alg == "lu" {
			return core.LU(m, r.n, r.p, mem), mem
		}
		return core.MatMulClassical(m, r.n, r.p, mem), mem
	case "nbody":
		mem := r.n / math.Sqrt(r.p)
		return core.NBody(m, r.n, r.p, mem, nbody.FlopsPerPair), mem
	default:
		res := core.FFT(m, r.n, r.p, false)
		return res, res.Mem
	}
}

// optimizeReply holds the /optimize fields the check compares.
type optimizeReply struct {
	P        float64 `json:"p"`
	MemWords float64 `json:"mem_words"`
	EnergyJ  float64 `json:"energy_j"`
}

func (r mixRequest) expectOptimize(m machine.Params) (optimizeReply, error) {
	if r.alg == "nbody" {
		pb := opt.NBody{M: m, N: r.n, F: nbody.FlopsPerPair}
		if r.objective == "min_energy" {
			return optimizeReply{MemWords: pb.OptimalMemory(), EnergyJ: pb.MinEnergy()}, nil
		}
		cfg, e, err := pb.MinEnergyGivenTime(r.budget)
		return optimizeReply{P: cfg.P, MemWords: cfg.Mem, EnergyJ: e}, err
	}
	pb := opt.MatMul{M: m, N: r.n}
	if r.objective == "min_energy" {
		return optimizeReply{MemWords: pb.OptimalMemory(), EnergyJ: pb.MinEnergy()}, nil
	}
	cfg, e, err := pb.MinEnergyGivenTime(r.budget)
	return optimizeReply{P: cfg.P, MemWords: cfg.Mem, EnergyJ: e}, err
}

// simulateReply holds the /simulate fields the pin covers.
type simulateReply struct {
	SimTimeS float64 `json:"sim_time_s"`
	MaxStats struct {
		Flops, WordsSent, MsgsSent, PeakMemWords float64
	} `json:"max_stats"`
	TotalEnergy float64 `json:"total_energy_j"`
	ActivePairs int     `json:"active_pairs"`
}

// checkReply checks one 200 reply against a direct call on the same
// tuple (/price, /optimize) or against the pin (/simulate).
func (r mixRequest) checkReply(m machine.Params, body []byte) error {
	switch r.kind {
	case "price":
		var got struct {
			Mem         float64 `json:"mem_words"`
			TotalTimeS  float64 `json:"total_time_s"`
			TotalEnergy float64 `json:"total_energy_j"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("parse /price reply: %w", err)
		}
		want, mem := r.expectPrice(m)
		if got.TotalTimeS != want.TotalTime() || got.TotalEnergy != want.TotalEnergy() || got.Mem != mem {
			return fmt.Errorf("%s: T=%g E=%g M=%g, direct core call gives T=%g E=%g M=%g",
				r.path, got.TotalTimeS, got.TotalEnergy, got.Mem, want.TotalTime(), want.TotalEnergy(), mem)
		}
	case "optimize":
		var got optimizeReply
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("parse /optimize reply: %w", err)
		}
		want, err := r.expectOptimize(m)
		if err != nil {
			return fmt.Errorf("%s: direct opt call failed: %v", r.path, err)
		}
		if got != want {
			return fmt.Errorf("%s: reply %+v, direct opt call gives %+v", r.path, got, want)
		}
	case "simulate":
		var got simulateReply
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("parse /simulate reply: %w", err)
		}
		ms := got.MaxStats
		if err := simulatePin.compare(simPin{T: got.SimTimeS, E: got.TotalEnergy,
			F: ms.Flops, W: ms.WordsSent, S: ms.MsgsSent, M: ms.PeakMemWords,
			ActivePairs: got.ActivePairs}); err != nil {
			return fmt.Errorf("%s: %v", r.path, err)
		}
	}
	return nil
}

// reqResult is one request's outcome in an open-loop phase. The reply is
// judged as soon as it is read, so no body is kept.
type reqResult struct {
	status  int
	err     error // why the request failed; nil when it succeeded
	wrong   bool  // err is a wrong value in a 200 reply
	latency float64
	hit     bool
}

// judge decides one reply: a transport error or a non-200 status is a
// failure, and a 200 whose value the checks reject is a wrong answer.
func judge(m machine.Params, r mixRequest, status int, body []byte, err error) (failure error, wrong bool) {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", r.path, err), false
	case status != http.StatusOK:
		return fmt.Errorf("%s: HTTP %d: %s", r.path, status, truncate(body, 160)), false
	}
	err = r.checkReply(m, body)
	return err, err != nil
}

// phase is the outcome of one open-loop phase.
type phase struct {
	reqs    []mixRequest
	results []reqResult
	late    []float64 // seconds each send started behind its due time
	wall    float64
}

func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.results))
	for i, r := range ph.results {
		out[i] = r.latency
	}
	return out
}

// server is one service instance behind a real HTTP listener, with a
// client limited to serveConns connections.
type server struct {
	m      machine.Params // the service's default machine, for the checks
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer() *server {
	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &server{m: machine.SimDefault(), srv: srv, ts: ts,
		client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// get sends one request, reads the whole reply and judges it. The
// latency is taken from due to the last byte read, before judging.
func (s *server) get(r mixRequest, due time.Time) reqResult {
	var res reqResult
	var body []byte
	resp, err := s.client.Get(s.ts.URL + r.path)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status, res.hit = resp.StatusCode, resp.Header.Get("X-Cache") == "hit"
	}
	res.latency = time.Since(due).Seconds()
	res.err, res.wrong = judge(s.m, r, res.status, body, err)
	return res
}

// openLoop sends reqs at rate per second, each on its schedule. A send
// waits only when serveMaxInFlight requests are already outstanding; that
// wait shows as generator lateness.
func (s *server) openLoop(reqs []mixRequest, rate float64, tr *tracer, parent *span) *phase {
	ph := &phase{reqs: reqs, results: make([]reqResult, len(reqs)), late: make([]float64, len(reqs))}
	slots := make(chan struct{}, serveMaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		ph.late[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func(i int, r mixRequest, due time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			sp := tr.start(parent, int64(i)+1, "http", "GET /"+r.kind)
			res := s.get(r, due)
			tr.end(sp, map[string]float64{"cache_hit": boolf(res.hit)})
			ph.results[i] = res
		}(i, r, due)
	}
	wg.Wait()
	ph.wall = time.Since(start).Seconds()
	return ph
}

// tally counts the phase's outcomes. A wrong value always clears
// out.correct; failures (errors, non-200 replies, wrong values) are
// counted when count is set. fails groups failures by endpoint, status
// and, for /price, algorithm and p.
func (ph *phase) tally(out *outcome, count bool, fails map[string]int) {
	for i, r := range ph.reqs {
		res := ph.results[i]
		if count {
			out.attempted++
		}
		if res.err == nil {
			continue
		}
		key := fmt.Sprintf("%s %d", r.kind, res.status)
		if r.kind == "price" {
			key = fmt.Sprintf("price alg=%s p=%g %d", r.alg, r.p, res.status)
		}
		fails[key]++
		if count {
			out.fail(res.wrong, "%v", res.err)
		} else if res.wrong {
			out.correct = false
			out.failures = append(out.failures, res.err.Error())
		}
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

type serveMix struct {
	m    machine.Params
	seed int64
	reqs []mixRequest
	srv  *server
}

func (sm *serveMix) setup(seed int64, seconds float64) error {
	sm.m = machine.SimDefault()
	sm.seed = seed
	sm.reqs = genMix(sm.m, seed, int(serveRate*seconds/2))
	sm.srv = startServer()
	return warmUp(sm.srv)
}

// warmUp sends one request to each endpoint, on tuples the mix never
// draws, and requires each to succeed.
func warmUp(s *server) error {
	for _, r := range []mixRequest{
		{kind: "price", alg: "matmul", n: 1000, p: 64, path: "/price?alg=matmul&n=1000&p=64"},
		{kind: "optimize", alg: "matmul", n: 1000, objective: "min_energy",
			path: "/optimize?alg=matmul&n=1000&objective=min_energy"},
		{kind: "simulate", path: "/simulate?alg=summa25d&n=64&q=4&c=1&seed=-1"},
	} {
		if res := s.get(r, time.Now()); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	return nil
}

func (sm *serveMix) close() {
	if sm.srv != nil {
		sm.srv.close()
		sm.srv = nil
	}
}

func (sm *serveMix) run(seconds float64, tr *tracer, out *outcome) (report, error) {
	fails := map[string]int{}
	runtime.GC()
	resetPeakRSS()
	fixed := sm.srv.openLoop(sm.reqs, serveRate, nil, nil)
	rss := peakRSSMB()
	fixed.tally(out, true, fails)
	lat := fixed.latencies()
	p50 := median(lat)
	detail := map[string]any{
		"offered_rps":     serveRate,
		"serve_p50_ms":    p50 * 1e3,
		"serve_p99_ms":    percentile(lat, 0.99) * 1e3,
		"latency_s":       summarize(lat),
		"gen_late_s":      summarize(fixed.late),
		"failures_by_key": fails,
		"cache":           sm.srv.srv.Metrics().Snapshot(time.Now()),
	}
	if tr == nil {
		maxRPS, steps := sm.sweep(seconds/2, out)
		detail["serve_max_rps"] = maxRPS
		detail["sweep"] = steps
		return report{metrics: map[string]metric{"run_s": {p50, "s"}, "peak_rss_mb": {rss, "MB"}}, detail: detail}, nil
	}

	// Traced: the same sequence again on a fresh server, with a span per
	// request, then the layer probes on that sequence.
	fresh := startServer()
	defer fresh.close()
	var traced *phase
	workloadCall(tr, nil, "serve-mix.phase", func() map[string]float64 {
		root := tr.start(nil, 0, "bench", "traced-requests")
		traced = fresh.openLoop(sm.reqs, serveRate, tr, root)
		tr.end(root, nil)
		return nil
	})
	traced.tally(out, true, map[string]int{})
	lp, err := layerProbes(tr, simulateShape, sm.m, sm.reqs)
	if err != nil {
		return report{}, err
	}
	p50t := median(traced.latencies())
	lp.addWorkload(tr, "serve-mix.phase", p50, []float64{p50t})
	snap := fresh.srv.Metrics().Snapshot(time.Now())
	if n := snap.CacheHits + snap.CacheMisses; n > 0 {
		lp.metrics["serve.cache_hit_ratio"] = metric{float64(snap.CacheHits) / float64(n), "fraction"}
	}
	for _, lane := range []string{"cheap", "heavy"} {
		ls := snap.Lanes[lane]
		if n := ls.Served + ls.Shed + ls.Rejected + ls.Failed + ls.TimedOut + ls.Cancelled; n > 0 {
			lp.metrics["serve.shed_frac."+lane] = metric{float64(ls.Shed) / float64(n), "fraction"}
		}
	}
	lp.metrics["serve.gen_late_ms"] = metric{percentile(traced.late, 0.99) * 1e3, "ms"}
	lp.metrics["serve.outside_handler_frac"] = metric{1 - lp.metrics["serve.handler_us"].Value/1e6/p50, "fraction"}
	simulates := 0
	for _, r := range sm.reqs {
		if r.kind == "simulate" {
			simulates++
		}
	}
	lp.metrics["matrix.kernel_share"] = metric{float64(simulates*simulateMulAdds) * lp.muladdSeconds /
		(traced.wall * float64(runtime.GOMAXPROCS(0))), "fraction"}
	detail["traced_latency_s"] = summarize(traced.latencies())
	detail["traced_cache"] = snap
	detail["layers"] = tr.layerTimes()
	return report{metrics: lp.metrics, detail: detail}, nil
}

// sweepStep is one offered rate of the max-rate sweep.
type sweepStep struct {
	RPS     float64 `json:"rps"`
	P99Ms   float64 `json:"p99_ms"`
	LateP99 float64 `json:"gen_late_p99_ms"`
	Refused int     `json:"refused"`
	Pass    bool    `json:"pass"`
}

// sweep offers rising rates on the warm server, sweepStepS seconds each,
// and returns the highest rate whose p99 stays under serveLimitS with no
// refused request and no growing backlog (the generator falling behind
// by more than the limit, or the last quarter's median over it). A step
// that misses is tried once more before the sweep stops, so one stall of
// the host does not end it. Replies are checked; only wrong values count
// against the run.
func (sm *serveMix) sweep(budget float64, out *outcome) (float64, []sweepStep) {
	var steps []sweepStep
	best := 0.0
	start := time.Now()
	for i, rate := range sweepRates {
		pass := false
		for try := int64(0); try < 2 && !pass; try++ {
			if time.Since(start).Seconds()+sweepStepS > budget {
				return best, steps
			}
			st := sm.step(rate, sm.seed+10*int64(i)+try+1, out)
			steps = append(steps, st)
			pass = st.Pass
		}
		if !pass {
			break
		}
		best = rate
	}
	return best, steps
}

// step offers one rate for sweepStepS seconds.
func (sm *serveMix) step(rate float64, seed int64, out *outcome) sweepStep {
	reqs := genMix(sm.m, seed, int(rate*sweepStepS))
	ph := sm.srv.openLoop(reqs, rate, nil, nil)
	ph.tally(out, false, map[string]int{})
	lat := ph.latencies()
	st := sweepStep{RPS: rate, P99Ms: percentile(lat, 0.99) * 1e3, LateP99: percentile(ph.late, 0.99) * 1e3}
	for _, r := range ph.results {
		// Status 0 is a request that got no reply at all. The known 400s
		// on p = 1 do not depend on the rate and are not refusals.
		if r.status == 0 || r.status == http.StatusTooManyRequests || r.status >= 500 {
			st.Refused++
		}
	}
	lastQuarter := median(lat[len(lat)*3/4:])
	st.Pass = st.P99Ms <= serveLimitS*1e3 && st.Refused == 0 &&
		st.LateP99 <= serveLimitS*1e3 && lastQuarter <= serveLimitS
	return st
}
