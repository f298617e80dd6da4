package obs_test

import (
	"strings"
	"testing"

	"perfscale/internal/machine"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// With αt = βt = 0 a send moves words in no time. The bus still delivers
// it — exporters count its words — but a zero-length interval has no place
// on a timeline, so the path, the utilization and the Gantt chart never
// see it.
func TestZeroDurationSendsStayOffTimeline(t *testing.T) {
	col := obs.NewCollector(2)
	cost := sim.Cost{GammaT: 1, Observers: []sim.Observer{col}}
	res, err := sim.Run(2, cost, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(10)
			r.Send(1, []float64{1, 2, 3})
		} else {
			r.Recv(0)
			r.Compute(5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, e := range col.Rank(0) {
		if e.Kind == obs.KindSend {
			sends++
			if e.Duration() != 0 || e.Words != 3 {
				t.Errorf("send event %+v, want zero duration carrying 3 words", e)
			}
		}
	}
	if sends != 1 {
		t.Fatalf("collector holds %d sends, want 1", sends)
	}

	T := res.Time()
	path := obs.CriticalPath(col)
	total := 0.0
	for i, e := range path {
		if e.Kind == obs.KindSend || e.Duration() <= 0 {
			t.Errorf("path[%d] = %+v: zero-duration send on the path", i, e)
		}
		if i > 0 && e.Start != path[i-1].End {
			t.Errorf("path gap between %+v and %+v", path[i-1], e)
		}
		total += e.Duration()
	}
	if total != T {
		t.Errorf("path covers %g of %g", total, T)
	}

	u := obs.Utilization(col, T)
	for rank, st := range res.PerRank {
		if want := st.ComputeTime / T; u[rank] != want {
			t.Errorf("rank %d utilization %g, want compute share %g", rank, u[rank], want)
		}
	}

	gantt := obs.RenderGantt(col, T, 30)
	for _, row := range strings.Split(gantt, "\n")[1:] {
		if strings.Contains(row, ">") {
			t.Errorf("Gantt row shows a send:\n%s", gantt)
		}
	}
}

// Without a Collector the summary prices the run but attributes no path
// and no communication matrix.
func TestSummaryWithoutCollectorHasNoPath(t *testing.T) {
	m := machine.SimDefault()
	res, err := sim.Run(4, testCost(), testProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSummary(m, res, nil)
	if s.Path != nil || s.PathTime != nil || s.Pairs != nil {
		t.Errorf("summary without a collector attributes a path: %+v", s)
	}
}
