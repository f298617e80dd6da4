package sim_test

import (
	"math"
	"strings"
	"testing"

	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// The timeline analyses live in internal/obs and read an obs.Collector;
// these tests pin them against the simulator's own scenarios — degraded
// windows, ChargeReceiver, respawn reboot stalls.

// collect runs fn on p ranks with a Collector subscribed.
func collect(t *testing.T, p int, cost sim.Cost, fn func(r *sim.Rank) error) (*sim.Result, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector(p)
	cost.Observers = append(cost.Observers, col)
	res, err := sim.Run(p, cost, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

// spans returns one rank's collected events that take time.
func spans(col *obs.Collector, rank int) []obs.Event {
	var out []obs.Event
	for _, e := range col.Rank(rank) {
		if e.End > e.Start {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceRecordsSegments(t *testing.T) {
	cost := sim.Cost{GammaT: 1, AlphaT: 10, BetaT: 1}
	_, col := collect(t, 2, cost, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(5)
			r.Send(1, []float64{1, 2}) // 10 + 2 = 12
		} else {
			r.Recv(0) // waits until 17
			r.Compute(3)
		}
		return nil
	})
	segs0 := col.Rank(0)
	if len(segs0) != 2 || segs0[0].Kind != obs.KindCompute || segs0[1].Kind != obs.KindSend {
		t.Fatalf("rank 0 segments: %+v", segs0)
	}
	if segs0[1].Start != 5 || segs0[1].End != 17 || segs0[1].Peer != 1 || segs0[1].Words != 2 {
		t.Errorf("send segment: %+v", segs0[1])
	}
	segs1 := col.Rank(1)
	if len(segs1) != 2 || segs1[0].Kind != obs.KindWait || segs1[1].Kind != obs.KindCompute {
		t.Fatalf("rank 1 segments: %+v", segs1)
	}
	if segs1[0].Start != 0 || segs1[0].End != 17 || segs1[0].Peer != 0 {
		t.Errorf("wait segment: %+v", segs1[0])
	}
}

func TestCriticalPathChain(t *testing.T) {
	// Rank 0 computes 100, sends to 1; rank 1 computes 50 (overlapped),
	// receives, computes 20. Critical path: compute(100)@0 → send@0 →
	// compute(20)@1; rank 1's first 50 is off-path.
	cost := sim.Cost{GammaT: 1, AlphaT: 5}
	res, col := collect(t, 2, cost, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(100)
			r.Send(1, []float64{1})
		} else {
			r.Compute(50)
			r.Recv(0)
			r.Compute(20)
		}
		return nil
	})
	path := obs.CriticalPath(col)
	if len(path) != 3 {
		t.Fatalf("path length %d: %+v", len(path), path)
	}
	if path[0].Kind != obs.KindCompute || path[0].Duration() != 100 || path[0].Rank != 0 {
		t.Errorf("path[0]: %+v", path[0])
	}
	if path[1].Kind != obs.KindSend || path[1].Duration() != 5 || path[1].Rank != 0 {
		t.Errorf("path[1]: %+v", path[1])
	}
	if path[2].Kind != obs.KindCompute || path[2].Duration() != 20 || path[2].Rank != 1 {
		t.Errorf("path[2]: %+v", path[2])
	}
	// The path tiles [0, T].
	bd := obs.PathBreakdown(path)
	total := bd[obs.KindCompute] + bd[obs.KindSend] + bd[obs.KindWait] + bd[obs.KindRecv]
	if math.Abs(total-res.Time()) > 1e-12 {
		t.Errorf("path total %g vs runtime %g", total, res.Time())
	}
}

func TestCriticalPathTilesTime(t *testing.T) {
	// A messier program, phased so the collector also holds instants the
	// walk must skip: the path must still tile [0, T] exactly.
	cost := sim.Cost{GammaT: 1e-3, AlphaT: 0.5, BetaT: 0.01}
	res, col := collect(t, 6, cost, shiftProgram)
	path := assertPathTiles(t, res, col)
	bd := obs.PathBreakdown(path)
	total := 0.0
	for _, v := range bd {
		total += v
	}
	if math.Abs(total-res.Time()) > 1e-9*res.Time() {
		t.Errorf("breakdown covers %g of %g", total, res.Time())
	}
	// No wait segments except possibly the leading one: following the
	// sender at each wait removes idle time from the path.
	for i, s := range path {
		if s.Kind == obs.KindWait && i != 0 {
			t.Errorf("interior wait on critical path: %+v", s)
		}
	}
}

// shiftProgram is a skewed compute, three ring shifts and an AllReduce,
// with a phase mark per step.
func shiftProgram(r *sim.Rank) error {
	w := r.World()
	r.Phase("skew")
	r.Compute(float64(100 * (r.ID() + 1)))
	data := make([]float64, 8)
	for s := 0; s < 3; s++ {
		r.Phase("shift")
		data = w.Shift(data, 1)
		r.Compute(50)
	}
	r.Phase("reduce")
	w.AllReduce(data, sim.OpSum)
	return nil
}

func TestUtilization(t *testing.T) {
	cost := sim.Cost{GammaT: 1, AlphaT: 1}
	res, col := collect(t, 2, cost, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(99)
			r.Send(1, nil) // +1 => T=100
		} else {
			r.Recv(0) // waits 100, does nothing else
		}
		return nil
	})
	u := obs.Utilization(col, res.Time())
	if u[0] != 1 {
		t.Errorf("rank 0 utilization %g, want 1", u[0])
	}
	if u[1] != 0 {
		t.Errorf("rank 1 utilization %g, want 0", u[1])
	}
	if z := obs.Utilization(col, 0); z[0] != 0 {
		t.Error("zero total time should give zero utilization")
	}
}

func TestCriticalPathEmptyTrace(t *testing.T) {
	if got := obs.CriticalPath(obs.NewCollector(3)); got != nil {
		t.Errorf("empty collector path: %+v", got)
	}
}

func TestRenderGantt(t *testing.T) {
	cost := sim.Cost{GammaT: 1, AlphaT: 10}
	res, col := collect(t, 2, cost, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(80)
			r.Send(1, []float64{1})
		} else {
			r.Recv(0)
			r.Compute(10)
		}
		return nil
	})
	out := obs.RenderGantt(col, res.Time(), 40)
	if !strings.Contains(out, "r00 |") || !strings.Contains(out, "r01 |") {
		t.Fatalf("missing rank rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %d", len(lines))
	}
	r0, r1 := lines[1], lines[2]
	if !strings.Contains(r0, "#") || !strings.Contains(r0, ">") {
		t.Errorf("rank 0 should show compute then send:\n%s", r0)
	}
	if !strings.Contains(r1, ".") || !strings.Contains(r1, "#") {
		t.Errorf("rank 1 should show wait then compute:\n%s", r1)
	}
	// The wait dots come before the compute on rank 1.
	if strings.Index(r1, ".") > strings.Index(r1, "#") {
		t.Error("rank 1 ordering wrong")
	}
	if got := obs.RenderGantt(col, 0, 40); !strings.Contains(got, "empty") {
		t.Error("zero-length trace should say empty")
	}
}

// Send segments inside degraded-bandwidth windows must carry the degraded
// αt/βt-priced duration, so per-rank segment totals agree with Stats
// exactly — under ChargeReceiver the receive side too.
func TestDegradedSendSegmentsMatchStatsTotals(t *testing.T) {
	plan := &sim.FaultPlan{
		Degraded: []sim.DegradedLink{
			{Src: -1, Dst: -1, From: 0, Until: 2, AlphaFactor: 8, BetaFactor: 3},
		},
	}
	cost := sim.Cost{
		AlphaT: 0.25, BetaT: 0.01, GammaT: 1e-3,
		ChargeReceiver: true, Faults: plan,
	}
	res, col := collect(t, 2, cost, func(r *sim.Rank) error {
		other := 1 - r.ID()
		for i := 0; i < 4; i++ {
			r.Send(other, make([]float64, 10))
			r.Recv(other)
			r.Compute(100)
		}
		return nil
	})
	// The first sends happen inside the window: their duration must be
	// the inflated 8·α + 10·3·β, not the base price. (The degraded fault
	// instant precedes it on the bus.)
	first := spans(col, 0)[0]
	if first.Kind != obs.KindSend {
		t.Fatalf("first segment is %v, want send", first.Kind)
	}
	if want := 8*0.25 + 3*0.01*10; math.Abs(first.Duration()-want) > 1e-15 {
		t.Errorf("degraded send duration %g, want %g", first.Duration(), want)
	}
	// And every rank's summed segment durations equal its Stats totals
	// exactly — the pin that pricing and timeline can never disagree.
	for rank, st := range res.PerRank {
		var send, recv float64
		for _, seg := range spans(col, rank) {
			switch seg.Kind {
			case obs.KindSend:
				send += seg.Duration()
			case obs.KindRecv:
				recv += seg.Duration()
			}
		}
		if math.Abs(send-st.SendTime) > 1e-12*st.SendTime {
			t.Errorf("rank %d: segment send total %g != Stats.SendTime %g", rank, send, st.SendTime)
		}
		if math.Abs(recv-st.RecvTime) > 1e-12*st.RecvTime {
			t.Errorf("rank %d: segment recv total %g != Stats.RecvTime %g", rank, recv, st.RecvTime)
		}
	}
}

// CriticalPath must tile [0, T] exactly under ChargeReceiver (receive
// segments join the path).
func TestCriticalPathChargeReceiverTilesTime(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-3, AlphaT: 0.5, BetaT: 0.01, ChargeReceiver: true}
	res, col := collect(t, 6, cost, shiftProgram)
	assertPathTiles(t, res, col)
}

// CriticalPath must also survive respawn-crash reboot stalls: the injected
// wait has no releasing sender (peer −1) and stays on the path as a stall
// instead of being followed off the end of the rank array.
func TestCriticalPathRespawnRebootStall(t *testing.T) {
	plan := &sim.FaultPlan{Crashes: map[int]float64{1: 0.01}, Respawn: true, RebootTime: 3}
	cost := sim.Cost{GammaT: 1e-3, AlphaT: 0.1, BetaT: 0.01, Faults: plan}
	res, col := collect(t, 2, cost, func(r *sim.Rank) error {
		r.Compute(100)
		other := 1 - r.ID()
		r.Send(other, make([]float64, 4))
		r.Recv(other)
		r.Compute(100)
		return nil
	})
	path := assertPathTiles(t, res, col)
	stall := false
	for _, seg := range path {
		if seg.Kind == obs.KindWait && seg.Peer == -1 && seg.Duration() == 3 {
			stall = true
		}
	}
	if !stall {
		t.Errorf("reboot stall missing from path: %+v", path)
	}
}

// assertPathTiles checks the critical path covers [0, T] contiguously and
// returns it.
func assertPathTiles(t *testing.T, res *sim.Result, col *obs.Collector) []obs.Event {
	t.Helper()
	path := obs.CriticalPath(col)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	total := 0.0
	for _, s := range path {
		total += s.Duration()
	}
	if T := res.Time(); math.Abs(total-T) > 1e-9*T {
		t.Errorf("path covers %g of %g", total, T)
	}
	for i := 1; i < len(path); i++ {
		if math.Abs(path[i].Start-path[i-1].End) > 1e-9 {
			t.Fatalf("path gap between %+v and %+v", path[i-1], path[i])
		}
	}
	return path
}
