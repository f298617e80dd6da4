package obs

import (
	"fmt"
	"io"
	"sort"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

// PairTraffic is one directed communication-matrix cell.
type PairTraffic struct {
	Src, Dst int
	Words    float64
	Msgs     float64
}

// Summary is the post-run attribution report: Eq. 2's energy split into
// its γe·F / βe·W / αe·S / δe·M·T / εe·T terms per rank, the directed
// communication matrix, and the same split along the run's critical path.
type Summary struct {
	P       int
	T       float64
	Machine machine.Params
	// Ranks holds the per-rank counters the energies were priced from.
	Ranks []sim.Stats
	// PerRank[i] is rank i's slice of Eq. 2. Total accumulates the terms
	// in rank order — the identical float additions core.PriceSim performs
	// — so Total equals the untraced run's priced energy bit for bit.
	PerRank []core.EnergyBreakdown
	Total   core.EnergyBreakdown
	// Pairs is the directed communication matrix (cells with traffic,
	// sorted by src then dst); nil when no Collector was supplied.
	Pairs []PairTraffic
	// Path is the run's critical path and PathEnergy the dynamic energy of
	// the work on it (compute γe·F, sends βe·W + αe·S; the static δe·M·T +
	// εe·T terms accrue machine-wide regardless of the path, so they are
	// not attributed to it). Both are nil/zero without a Collector.
	Path       []Event
	PathEnergy core.EnergyBreakdown
	// PathTime decomposes the path's duration by segment kind.
	PathTime map[Kind]float64
}

// NewSummary prices a finished run. col may be nil: then there is no
// communication matrix and no critical-path attribution.
func NewSummary(m machine.Params, res *sim.Result, col *Collector) *Summary {
	s := &Summary{
		P:       len(res.PerRank),
		T:       res.Time(),
		Machine: m,
		Ranks:   append([]sim.Stats(nil), res.PerRank...),
		PerRank: make([]core.EnergyBreakdown, 0, len(res.PerRank)),
	}
	for _, st := range res.PerRank {
		e := core.EnergyBreakdown{
			Compute:   m.GammaE * st.Flops,
			Bandwidth: m.BetaE * st.WordsSent,
			Latency:   m.AlphaE * st.MsgsSent,
			Memory:    m.DeltaE * st.PeakMemWords * s.T,
			Leakage:   m.EpsilonE * s.T,
		}
		s.PerRank = append(s.PerRank, e)
		// Accumulate exactly as core.PriceSim does: term by term, in rank
		// order. Floating-point addition is order-sensitive; matching the
		// order makes Total bit-identical to PriceSim's, which the
		// exporters' self-checks rely on.
		s.Total.Compute += e.Compute
		s.Total.Bandwidth += e.Bandwidth
		s.Total.Latency += e.Latency
		s.Total.Memory += e.Memory
		s.Total.Leakage += e.Leakage
	}
	if col == nil {
		return s
	}
	s.Pairs = pairTraffic(col)
	s.Path = CriticalPath(col)
	s.PathTime = PathBreakdown(s.Path)
	for _, e := range s.Path {
		switch e.Kind {
		case KindCompute:
			s.PathEnergy.Compute += m.GammaE * e.Flops
		case KindSend:
			s.PathEnergy.Bandwidth += m.BetaE * float64(e.Words)
			s.PathEnergy.Latency += m.AlphaE * e.Msgs
		}
	}
	return s
}

// pairTraffic folds a collector's send events into the directed matrix.
func pairTraffic(col *Collector) []PairTraffic {
	type key struct{ src, dst int }
	cells := map[key]*PairTraffic{}
	for rank := 0; rank < col.P(); rank++ {
		for _, e := range col.Rank(rank) {
			if e.Kind != KindSend {
				continue
			}
			k := key{e.Rank, e.Peer}
			c := cells[k]
			if c == nil {
				c = &PairTraffic{Src: e.Rank, Dst: e.Peer}
				cells[k] = c
			}
			c.Words += float64(e.Words)
			c.Msgs += e.Msgs
		}
	}
	out := make([]PairTraffic, 0, len(cells))
	for _, c := range cells {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// WriteEnergyCSV writes the per-rank energy split, one row per rank plus
// a total row, in joules.
func (s *Summary) WriteEnergyCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "rank,flops,words_sent,msgs_sent,peak_mem_words,time_s,e_compute_j,e_bandwidth_j,e_latency_j,e_memory_j,e_leakage_j,e_total_j"); err != nil {
		return err
	}
	for i, e := range s.PerRank {
		st := s.Ranks[i]
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			i, st.Flops, st.WordsSent, st.MsgsSent, st.PeakMemWords, st.Time,
			e.Compute, e.Bandwidth, e.Latency, e.Memory, e.Leakage, e.Total()); err != nil {
			return err
		}
	}
	t := s.Total
	_, err := fmt.Fprintf(w, "total,,,,,%g,%g,%g,%g,%g,%g,%g\n",
		s.T, t.Compute, t.Bandwidth, t.Latency, t.Memory, t.Leakage, t.Total())
	return err
}

// WriteCommCSV writes the directed communication matrix as sparse
// src,dst,words,msgs rows.
func (s *Summary) WriteCommCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "src,dst,words,msgs"); err != nil {
		return err
	}
	for _, c := range s.Pairs {
		if _, err := fmt.Fprintf(w, "%d,%d,%g,%g\n", c.Src, c.Dst, c.Words, c.Msgs); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the human-readable report: the machine-wide energy
// split with shares, the busiest pairs, and the critical-path breakdown.
func (s *Summary) WriteText(w io.Writer) error {
	t := s.Total
	total := t.Total()
	pct := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * x / total
	}
	fmt.Fprintf(w, "p=%d machine=%s T=%.6g s E=%.6g J\n", s.P, s.Machine.Name, s.T, total)
	fmt.Fprintf(w, "energy split (Eq. 2):\n")
	fmt.Fprintf(w, "  compute   γe·F    %12.5g J  %5.1f%%\n", t.Compute, pct(t.Compute))
	fmt.Fprintf(w, "  bandwidth βe·W    %12.5g J  %5.1f%%\n", t.Bandwidth, pct(t.Bandwidth))
	fmt.Fprintf(w, "  latency   αe·S    %12.5g J  %5.1f%%\n", t.Latency, pct(t.Latency))
	fmt.Fprintf(w, "  memory    δe·M·T  %12.5g J  %5.1f%%\n", t.Memory, pct(t.Memory))
	fmt.Fprintf(w, "  leakage   εe·T    %12.5g J  %5.1f%%\n", t.Leakage, pct(t.Leakage))
	if s.Pairs != nil {
		top := append([]PairTraffic(nil), s.Pairs...)
		sort.Slice(top, func(i, j int) bool { return top[i].Words > top[j].Words })
		n := len(top)
		if n > 5 {
			n = 5
		}
		fmt.Fprintf(w, "communication matrix: %d active pairs; busiest:\n", len(s.Pairs))
		for _, c := range top[:n] {
			fmt.Fprintf(w, "  %4d -> %-4d %12g words %10g msgs\n", c.Src, c.Dst, c.Words, c.Msgs)
		}
	}
	if s.Path != nil {
		fmt.Fprintf(w, "critical path: %d segments", len(s.Path))
		for _, kind := range []Kind{KindCompute, KindSend, KindRecv, KindWait} {
			if d := s.PathTime[kind]; d > 0 {
				fmt.Fprintf(w, "  %s=%.4gs", kind, d)
			}
		}
		pe := s.PathEnergy
		fmt.Fprintf(w, "\npath dynamic energy: compute=%.5g J bandwidth=%.5g J latency=%.5g J\n",
			pe.Compute, pe.Bandwidth, pe.Latency)
	}
	return nil
}
