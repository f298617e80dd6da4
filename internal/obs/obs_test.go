package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

func testCost() sim.Cost {
	return sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-6}
}

// testProgram is the shared workload: phased compute + a ring shift, with
// per-rank-skewed sizes so no two ranks have identical counters.
func testProgram(r *sim.Rank) error {
	r.Phase("setup")
	r.Alloc(100 * (r.ID() + 1))
	r.Compute(float64(1000 * (r.ID() + 1)))
	r.Phase("exchange")
	next := (r.ID() + 1) % r.P()
	prev := (r.ID() + r.P() - 1) % r.P()
	payload := make([]float64, 8*(r.ID()+1))
	r.Send(next, payload)
	r.Recv(prev)
	r.Phase("finish")
	r.Compute(500)
	return nil
}

// testFaults is a completing plan: a respawned crash plus a degraded
// window. Drops would hang the raw-channel program.
func testFaults() *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:       7,
		Crashes:    map[int]float64{2: 1e-9},
		Respawn:    true,
		RebootTime: 1e-4,
		Degraded: []sim.DegradedLink{
			{Src: -1, Dst: -1, AlphaFactor: 3, BetaFactor: 2},
		},
	}
}

func runCollected(t *testing.T, faults *sim.FaultPlan) (*sim.Result, *obs.Collector) {
	t.Helper()
	cost := testCost()
	cost.Faults = faults
	col := obs.NewCollector(4)
	cost.Observers = []sim.Observer{col}
	res, err := sim.Run(4, cost, testProgram)
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

func TestCollectorCapturesRun(t *testing.T) {
	res, col := runCollected(t, nil)
	if col.P() != 4 {
		t.Fatalf("P() = %d", col.P())
	}
	for rank := 0; rank < 4; rank++ {
		events := col.Rank(rank)
		var phases []string
		now := 0.0
		for _, e := range events {
			if e.Start < now {
				t.Errorf("rank %d event %+v starts before %g", rank, e, now)
			}
			now = e.Start
			if e.Kind == obs.KindPhase {
				phases = append(phases, e.Name)
			}
		}
		if want := []string{"setup", "exchange", "finish"}; fmt.Sprint(phases) != fmt.Sprint(want) {
			t.Errorf("rank %d phases = %v, want %v", rank, phases, want)
		}
		// The bus must deliver the same decomposition the Stats carry.
		var flops float64
		var words int
		for _, e := range events {
			if e.Kind == obs.KindCompute {
				flops += e.Flops
			}
			if e.Kind == obs.KindSend {
				words += e.Words
			}
		}
		st := res.PerRank[rank]
		if flops != st.Flops {
			t.Errorf("rank %d bus flops %g, stats %g", rank, flops, st.Flops)
		}
		if float64(words) != st.WordsSent {
			t.Errorf("rank %d bus words %d, stats %g", rank, words, st.WordsSent)
		}
	}
	if len(col.Deadlocks()) != 0 {
		t.Errorf("unexpected deadlocks: %v", col.Deadlocks())
	}
}

func TestCollectorSeesFaultAndCrashEvents(t *testing.T) {
	_, col := runCollected(t, testFaults())
	var crashes, degraded int
	for rank := 0; rank < 4; rank++ {
		for _, e := range col.Rank(rank) {
			switch e.Kind {
			case obs.KindCrash:
				crashes++
				if e.Rank != 2 || e.Name != "crash-respawn" {
					t.Errorf("crash event %+v", e)
				}
			case obs.KindFault:
				if e.Name == sim.FaultDegraded.String() {
					degraded++
				}
			}
		}
	}
	if crashes != 1 {
		t.Errorf("crashes = %d, want 1", crashes)
	}
	if degraded != 4 {
		t.Errorf("degraded fault events = %d, want one per send", degraded)
	}
}

func TestRingBufferBounds(t *testing.T) {
	rb := obs.NewRingBuffer(16)
	for i := 0; i < 50; i++ {
		rb.OnPhase(0, fmt.Sprintf("p%d", i), float64(i))
	}
	if rb.Total() != 50 {
		t.Errorf("Total = %d", rb.Total())
	}
	if rb.Dropped() != 34 {
		t.Errorf("Dropped = %d", rb.Dropped())
	}
	snap := rb.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot holds %d events", len(snap))
	}
	for i, e := range snap {
		if want := fmt.Sprintf("p%d", 34+i); e.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest first)", i, e.Name, want)
		}
	}
}

func TestRingBufferObservesRunBounded(t *testing.T) {
	cost := testCost()
	rb := obs.NewRingBuffer(8)
	col := obs.NewCollector(4)
	cost.Observers = []sim.Observer{rb, col}
	if _, err := sim.Run(4, cost, testProgram); err != nil {
		t.Fatal(err)
	}
	if got, want := rb.Total(), uint64(col.Total()); got != want {
		t.Errorf("ring saw %d events, collector %d", got, want)
	}
	if len(rb.Snapshot()) != 8 {
		t.Errorf("snapshot len %d, want the 8-event window", len(rb.Snapshot()))
	}
	if rb.Dropped() != rb.Total()-8 {
		t.Errorf("Dropped = %d with Total = %d", rb.Dropped(), rb.Total())
	}
}

func TestJSONLStreamParses(t *testing.T) {
	cost := testCost()
	cost.Faults = testFaults()
	// Recv segments exist only when the receiver is charged for them.
	cost.ChargeReceiver = true
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	col := obs.NewCollector(4)
	cost.Observers = []sim.Observer{jw, col}
	if _, err := sim.Run(4, cost, testProgram); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	kinds := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e struct {
			Kind  string  `json:"kind"`
			Rank  int     `json:"rank"`
			Start float64 `json:"start"`
			End   float64 `json:"end"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", lines+1, err)
		}
		if e.Kind == "" || e.End < e.Start {
			t.Fatalf("bad event on line %d: %+v", lines+1, e)
		}
		kinds[e.Kind]++
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != col.Total() {
		t.Errorf("stream carries %d lines, collector %d events", lines, col.Total())
	}
	for _, want := range []string{"compute", "send", "recv", "phase", "fault", "crash"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in stream (kinds: %v)", want, kinds)
		}
	}
}

func TestChromeTraceValidates(t *testing.T) {
	m := machine.SimDefault()
	res, col := runCollected(t, testFaults())
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col, obs.TraceOptions{Machine: &m, Result: res}); err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RankTracks != 4 {
		t.Errorf("RankTracks = %d, want 4", stats.RankTracks)
	}
	if stats.PhaseSlices != 12 {
		t.Errorf("PhaseSlices = %d, want 3 per rank", stats.PhaseSlices)
	}
	if stats.Instants < 5 {
		t.Errorf("Instants = %d, want the crash and 4 degraded-send faults", stats.Instants)
	}
	// The energy counter's final value is the full Eq. 2 energy. The trace
	// accumulates deltas in time order, not PriceSim's rank order, so the
	// comparison is tolerance-based.
	want := core.PriceSim(m, res).Total()
	got := stats.Counters["cumulative energy (J)"]
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("final energy counter %g, PriceSim %g", got, want)
	}
	total := res.TotalStats()
	if got := stats.Counters["cumulative words sent"]; got != total.WordsSent {
		t.Errorf("final words counter %g, stats %g", got, total.WordsSent)
	}
	if got := stats.Counters["cumulative messages sent"]; got != total.MsgsSent {
		t.Errorf("final msgs counter %g, stats %g", got, total.MsgsSent)
	}
}

func TestChromeTraceDownsamplingKeepsFinalValue(t *testing.T) {
	m := machine.SimDefault()
	res, col := runCollected(t, nil)
	var full, sampled bytes.Buffer
	if err := obs.WriteChromeTrace(&full, col, obs.TraceOptions{Machine: &m, Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&sampled, col, obs.TraceOptions{Machine: &m, Result: res, CounterSamples: 2}); err != nil {
		t.Fatal(err)
	}
	fs, err := obs.ValidateChromeTrace(full.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := obs.ValidateChromeTrace(sampled.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ss.CounterEvents >= fs.CounterEvents {
		t.Errorf("downsampling kept %d counter events of %d", ss.CounterEvents, fs.CounterEvents)
	}
	for name, v := range fs.Counters {
		if ss.Counters[name] != v {
			t.Errorf("counter %q final value %g after downsampling, want %g", name, ss.Counters[name], v)
		}
	}
}

func TestSummaryEnergyBitIdentical(t *testing.T) {
	m := machine.SimDefault()
	res, col := runCollected(t, testFaults())
	s := obs.NewSummary(m, res, col)
	want := core.PriceSim(m, res)
	if s.Total != want {
		t.Errorf("summary total %+v != PriceSim %+v (must be bit-identical)", s.Total, want)
	}

	// Observation must not perturb the physics: the untraced run's Stats
	// and priced energy are identical to the traced run's.
	plain, err := sim.Run(4, testCost(), testProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Traced run carries faults; rerun traced without them for the pairing.
	clean, cleanCol := runCollected(t, nil)
	for i := range plain.PerRank {
		if plain.PerRank[i] != clean.PerRank[i] {
			t.Errorf("rank %d stats differ traced vs untraced:\n%+v\n%+v", i, clean.PerRank[i], plain.PerRank[i])
		}
	}
	if got := obs.NewSummary(m, clean, cleanCol).Total; got != core.PriceSim(m, plain) {
		t.Errorf("traced summary %+v != untraced PriceSim %+v", got, core.PriceSim(m, plain))
	}
}

func TestSummaryPairsAndPath(t *testing.T) {
	m := machine.SimDefault()
	res, col := runCollected(t, nil)
	s := obs.NewSummary(m, res, col)
	if len(s.Pairs) != 4 {
		t.Fatalf("ring shift has 4 active pairs, got %v", s.Pairs)
	}
	var words float64
	for _, c := range s.Pairs {
		if c.Dst != (c.Src+1)%4 {
			t.Errorf("unexpected pair %+v", c)
		}
		words += c.Words
	}
	if total := res.TotalStats().WordsSent; words != total {
		t.Errorf("matrix words %g, stats %g", words, total)
	}
	if len(s.Path) == 0 {
		t.Fatal("no critical path on a collected run")
	}
	pathDur := 0.0
	for _, kind := range []obs.Kind{obs.KindCompute, obs.KindSend, obs.KindRecv, obs.KindWait} {
		pathDur += s.PathTime[kind]
	}
	if T := res.Time(); math.Abs(pathDur-T) > 1e-9*T {
		t.Errorf("PathTime sums to %g, T = %g", pathDur, T)
	}
	if s.PathEnergy.Compute <= 0 {
		t.Errorf("path dynamic energy %+v has no compute term", s.PathEnergy)
	}
}

func TestSummaryWriters(t *testing.T) {
	m := machine.SimDefault()
	res, col := runCollected(t, nil)
	s := obs.NewSummary(m, res, col)

	var csv bytes.Buffer
	if err := s.WriteEnergyCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+4+1 {
		t.Fatalf("energy CSV has %d lines:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "rank,flops,") || !strings.HasPrefix(lines[5], "total,") {
		t.Errorf("energy CSV shape:\n%s", csv.String())
	}

	var comm bytes.Buffer
	if err := s.WriteCommCSV(&comm); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(comm.String()), "\n")); got != 1+4 {
		t.Errorf("comm CSV has %d lines:\n%s", got, comm.String())
	}

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"energy split", "γe·F", "communication matrix", "critical path"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report misses %q:\n%s", want, text.String())
		}
	}
}
