package campaign

import (
	"fmt"

	"perfscale/internal/sim"
)

// Class partitions cells by the invariant set they must satisfy.
type Class string

const (
	// ClassMaskable marks survivable fault plans — fractional message
	// faults and degraded windows the resilience stack exists to absorb.
	// The run must complete bit-identical to the clean baseline, inside
	// the overhead bands, above the communication lower bound.
	ClassMaskable Class = "maskable"
	// ClassGraceful marks plans that may legitimately kill the run —
	// rank crashes and total link loss. The run must either complete
	// bit-identically or fail with a typed verdict (peer-failure or
	// crash); it must never wedge into a deadlock abort or an untyped
	// error.
	ClassGraceful Class = "graceful"
)

// Cell is one campaign coordinate: a fault plan plus the invariant class
// judging it. The cell list is a pure function of (Config, Space), which
// is what makes an interrupted campaign resumable with an identical
// corpus.
type Cell struct {
	Seq   int            `json:"seq"`
	Kind  string         `json:"kind"`
	Class Class          `json:"class"`
	Desc  string         `json:"desc"`
	Plan  *sim.FaultPlan `json:"plan"`
}

// mix64 is the splitmix64 finalizer, the same generator sim.FaultPlan
// hashes with; the campaign derives every cell seed and randomized choice
// from it so the cell list depends only on Config.Seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellSeed derives a nonzero fault-plan seed for cell construction slot i.
func cellSeed(base uint64, i int) uint64 {
	return mix64(base^mix64(uint64(i)+0xC0FFEE)) | 1
}

// BuildCells generates the campaign's cell list from the enumerated space:
// the background-loss scenario first (the cheapest high-yield cell),
// then seeded randomized compound plans, then the structured sweeps —
// crash-at-each-phase, drop-each-link (fractional and total), and the
// degraded-window grid.
func BuildCells(cfg Config, sp *Space) []Cell {
	var cells []Cell
	add := func(kind string, class Class, desc string, plan *sim.FaultPlan) {
		cells = append(cells, Cell{Seq: len(cells), Kind: kind, Class: class, Desc: desc, Plan: plan})
	}

	// Background loss: drops, duplications and corruptions on every link
	// at once, as three separate atoms so delta-debugging can name the
	// one that matters.
	add("background", ClassMaskable,
		fmt.Sprintf("all-links background loss: %g drop + 0.02 dup + 0.02 corrupt", cfg.DropProb),
		&sim.FaultPlan{Seed: cellSeed(cfg.Seed, 0), Links: []sim.LinkFault{
			{Src: -1, Dst: -1, DropProb: cfg.DropProb},
			{Src: -1, Dst: -1, DupProb: 0.02},
			{Src: -1, Dst: -1, CorruptProb: 0.02},
		}})

	// Seeded randomized compound plans over the enumerated coordinates.
	probs := []float64{0.05, 0.1, 0.2, 0.3}
	for i := 0; i < cfg.RandomPlans; i++ {
		roll := func(salt uint64) uint64 { return mix64(cfg.Seed ^ mix64(uint64(i)*0x9E3779B9+salt)) }
		plan := &sim.FaultPlan{Seed: cellSeed(cfg.Seed, 1000+i)}
		natoms := 1 + int(roll(1)%3)
		desc := "compound:"
		for a := 0; a < natoms; a++ {
			l := sp.Links[int(roll(uint64(10+a))%uint64(len(sp.Links)))]
			lf := sim.LinkFault{Src: l.Src, Dst: l.Dst}
			p := probs[int(roll(uint64(20+a))%uint64(len(probs)))]
			switch roll(uint64(30+a)) % 3 {
			case 0:
				lf.DropProb = p
				desc += fmt.Sprintf(" drop(%d->%d,%g)", l.Src, l.Dst, p)
			case 1:
				lf.DupProb = p
				desc += fmt.Sprintf(" dup(%d->%d,%g)", l.Src, l.Dst, p)
			default:
				lf.CorruptProb = p
				desc += fmt.Sprintf(" corrupt(%d->%d,%g)", l.Src, l.Dst, p)
			}
			plan.Links = append(plan.Links, lf)
		}
		if len(sp.Windows) > 0 && roll(40)%2 == 0 {
			w := sp.Windows[int(roll(41)%uint64(len(sp.Windows)))]
			factor := float64(uint64(4) << (roll(42) % 3)) // 4, 8 or 16
			plan.Degraded = append(plan.Degraded, sim.DegradedLink{
				Src: -1, Dst: -1, From: w.From, Until: w.Until,
				AlphaFactor: factor, BetaFactor: factor,
			})
			desc += fmt.Sprintf(" degrade(window [%g,%g), x%g)", w.From, w.Until, factor)
		}
		add("compound", ClassMaskable, desc, plan)
	}

	// Crash at each phase boundary: the rank is hash-chosen per phase so
	// the sweep varies the victim, and the crash is fail-stop (no
	// respawn) — SUMMAARQ has no application-level recovery, so the
	// invariant is a graceful typed failure, never a wedge.
	crashes := sp.Phases
	if cfg.MaxCrashCells > 0 && len(crashes) > cfg.MaxCrashCells {
		crashes = strideAny(crashes, cfg.MaxCrashCells)
	}
	for i, mark := range crashes {
		rank := int(mix64(cfg.Seed^uint64(0xDEAD+i)) % uint64(sp.Ranks))
		add("crash-phase", ClassGraceful,
			fmt.Sprintf("crash rank %d at %s (t=%g)", rank, mark.Name, mark.At),
			&sim.FaultPlan{Seed: cellSeed(cfg.Seed, 2000+i),
				Crashes: map[int]float64{rank: mark.At}})
	}

	// Drop each active link at the campaign's fractional rate.
	links := sp.Links
	if cfg.MaxLinkCells > 0 && len(links) > cfg.MaxLinkCells {
		links = strideAny(links, cfg.MaxLinkCells)
	}
	for i, l := range links {
		add("drop-link", ClassMaskable,
			fmt.Sprintf("drop %g on link %d->%d", cfg.DropProb, l.Src, l.Dst),
			&sim.FaultPlan{Seed: cellSeed(cfg.Seed, 3000+i),
				Links: []sim.LinkFault{{Src: l.Src, Dst: l.Dst, DropProb: cfg.DropProb}}})
	}

	// Total loss on a couple of links: the sender completes its budget
	// optimistically, the receiver's detector must convert the silence
	// into a typed peer-failure verdict — or the run completes anyway
	// (an ack-only direction). Either is graceful; a wedge is not.
	for i, l := range links {
		if i >= 2 {
			break
		}
		add("drop-link-hard", ClassGraceful,
			fmt.Sprintf("total loss on link %d->%d", l.Src, l.Dst),
			&sim.FaultPlan{Seed: cellSeed(cfg.Seed, 4000+i),
				Links: []sim.LinkFault{{Src: l.Src, Dst: l.Dst, DropProb: 1}}})
	}

	// Degraded-window grid: every enumerated timer window × inflation
	// factor, all links. Degradation moves time, never data, so the run
	// must stay bit-identical inside (generous) overhead bands.
	windows := sp.Windows
	if cfg.MaxWindowCells > 0 && len(windows) > cfg.MaxWindowCells {
		windows = strideAny(windows, cfg.MaxWindowCells)
	}
	for i, w := range windows {
		for _, factor := range []float64{4, 16} {
			add("degraded-window", ClassMaskable,
				fmt.Sprintf("degrade all links x%g in [%g,%g)", factor, w.From, w.Until),
				&sim.FaultPlan{Seed: cellSeed(cfg.Seed, 5000+i),
					Degraded: []sim.DegradedLink{{Src: -1, Dst: -1, From: w.From, Until: w.Until,
						AlphaFactor: factor, BetaFactor: factor}}})
		}
	}
	return cells
}

// strideAny downsamples a slice to at most max elements, evenly spaced,
// always keeping the first.
func strideAny[T any](s []T, max int) []T {
	if len(s) <= max || max <= 0 {
		return s
	}
	out := make([]T, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s[i*len(s)/max])
	}
	return out
}

// coordWeight measures a plan's concrete coordinate footprint: each crash
// is one coordinate, each link rule or degradation window counts the
// directed pairs it matches (a -1 wildcard spans all ranks). Shrinking
// minimizes this weight — removing an atom or narrowing a wildcard both
// strictly reduce it.
func coordWeight(p *sim.FaultPlan, ranks int) int {
	if p == nil {
		return 0
	}
	span := func(v int) int {
		if v == -1 {
			return ranks
		}
		return 1
	}
	w := len(p.Crashes)
	for _, l := range p.Links {
		w += span(l.Src) * span(l.Dst)
	}
	for _, d := range p.Degraded {
		w += span(d.Src) * span(d.Dst)
	}
	return w
}
