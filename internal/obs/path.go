package obs

import (
	"fmt"
	"math"
	"sort"
)

// spans returns each rank's timeline segments that take time: the events
// with End > Start. Phases, faults, timers and crashes are instants, so
// the filter keeps exactly the compute/send/wait/recv intervals, minus
// zero-duration ones (a send under zero α/β moves words but no time).
func spans(col *Collector) [][]Event {
	out := make([][]Event, col.P())
	for rank := range out {
		for _, e := range col.Rank(rank) {
			if e.End > e.Start {
				out[rank] = append(out[rank], e)
			}
		}
	}
	return out
}

// endingAt finds the span ending at now; segs are in time order, so End
// is monotone.
func endingAt(segs []Event, now float64) (int, bool) {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= now-1e-15 })
	return i, i < len(segs) && segs[i].End <= now+1e-15
}

// CriticalPath walks the message-dependency graph backwards from the
// last-finishing rank: within a rank, time flows through its segments; a
// wait segment hands off to the sender whose message released it. The
// returned events are in forward time order and tile [0, T] exactly
// (gaps can only be leading idle time at t = 0, reported as a wait with
// peer -1).
//
// A wait is followed to its peer only when the peer has a send ending at
// the same instant. Waits nothing released — crash reboot stalls (peer -1)
// and timed-out receives — pass on this rank, so they stay on the path.
//
// The path's composition answers "what would speed this run up": compute
// segments respond to γt, send segments to αt/βt, and an empty wait share
// means the run is a single dependency chain with no slack.
func CriticalPath(col *Collector) []Event {
	segs := spans(col)
	last, lastEnd := -1, -1.0
	for rank, s := range segs {
		if len(s) > 0 && s[len(s)-1].End > lastEnd {
			last, lastEnd = rank, s[len(s)-1].End
		}
	}
	if last < 0 {
		return nil
	}
	var path []Event
	rank := last
	now := lastEnd
	for now > 0 {
		i, ok := endingAt(segs[rank], now)
		if !ok {
			// No activity ends here: leading idle time on this rank.
			path = append(path, Event{Kind: KindWait, Rank: rank, Peer: -1, End: now})
			break
		}
		seg := segs[rank][i]
		if seg.Kind == KindWait && seg.Peer >= 0 {
			// The wait ended when the sender's message arrived: jump to
			// the sender, whose send segment ends at the same instant.
			if j, ok := endingAt(segs[seg.Peer], now); ok && segs[seg.Peer][j].Kind == KindSend {
				rank = seg.Peer
				continue
			}
		}
		path = append(path, seg)
		now = seg.Start
	}
	// Reverse into forward time order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathBreakdown sums a path's duration by kind.
func PathBreakdown(path []Event) map[Kind]float64 {
	out := map[Kind]float64{}
	for _, e := range path {
		out[e.Kind] += e.Duration()
	}
	return out
}

// Utilization returns each rank's busy fraction: (T − wait − leading idle)
// divided by the run's total time.
func Utilization(col *Collector, totalTime float64) []float64 {
	out := make([]float64, col.P())
	if totalTime <= 0 {
		return out
	}
	for rank, segs := range spans(col) {
		busy := 0.0
		for _, s := range segs {
			if s.Kind != KindWait {
				busy += s.Duration()
			}
		}
		out[rank] = math.Min(1, busy/totalTime)
	}
	return out
}

// RenderGantt draws the observed timelines as an ASCII Gantt chart: one
// row per rank, width columns across [0, totalTime]. Cell glyphs: '#'
// compute, '>' send, '~' receive cost, '.' waiting, ' ' idle/finished.
// When several segments share a cell, the busiest kind wins.
func RenderGantt(col *Collector, totalTime float64, width int) string {
	if width < 10 {
		width = 10
	}
	if totalTime <= 0 {
		return "(empty trace)\n"
	}
	glyph := map[Kind]byte{KindCompute: '#', KindSend: '>', KindRecv: '~', KindWait: '.'}
	// Priority when mixed within one cell: compute > send > recv > wait.
	prio := map[Kind]int{KindCompute: 3, KindSend: 2, KindRecv: 1, KindWait: 0}
	var b []byte
	header := fmt.Sprintf("time 0 .. %.3g s, %d ranks (# compute, > send, ~ recv, . wait)\n", totalTime, col.P())
	b = append(b, header...)
	for rank, segs := range spans(col) {
		row := make([]byte, width)
		weight := make([]float64, width)
		kinds := make([]int, width)
		for i := range row {
			row[i] = ' '
			kinds[i] = -1
		}
		for _, s := range segs {
			c0 := int(s.Start / totalTime * float64(width))
			c1 := int(s.End / totalTime * float64(width))
			if c1 >= width {
				c1 = width - 1
			}
			for c := c0; c <= c1; c++ {
				lo := math.Max(s.Start, float64(c)/float64(width)*totalTime)
				hi := math.Min(s.End, float64(c+1)/float64(width)*totalTime)
				overlap := hi - lo
				if overlap <= 0 {
					continue
				}
				// Prefer the segment covering more of the cell; break ties
				// by kind priority.
				if overlap > weight[c] || (overlap == weight[c] && prio[s.Kind] > kinds[c]) {
					weight[c] = overlap
					kinds[c] = prio[s.Kind]
					row[c] = glyph[s.Kind]
				}
			}
		}
		b = append(b, fmt.Sprintf("r%02d |", rank)...)
		b = append(b, row...)
		b = append(b, '\n')
	}
	return string(b)
}
