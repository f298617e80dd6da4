package campaign

import (
	"context"
	"sort"

	"perfscale/internal/sim"
)

// shrinker drives reproducer minimization: given a plan that violates one
// named invariant, it searches for the smallest plan (by coordWeight) that
// still violates the same invariant, spending at most budget target runs.
// Every step is deterministic — candidate order is fixed and the predicate
// is the bitwise-reproducible simulator — so shrinking the same finding
// always lands on the same minimal reproducer.
type shrinker struct {
	ctx    context.Context
	t      Target
	class  Class
	clean  *Outcome
	b      bands
	inv    string // the invariant the minimized plan must keep violating
	sp     *Space
	budget int // predicate runs remaining
	runs   int // predicate runs consumed
}

// fails reports whether the candidate plan still triggers the invariant.
// Out of budget, cancelled, or invalid candidates conservatively report
// false — the current (known-failing) plan is kept instead.
func (s *shrinker) fails(p *sim.FaultPlan) bool {
	need := 1
	if s.inv == "replay" {
		need = 2
	}
	if s.budget < need || s.ctx.Err() != nil {
		return false
	}
	if err := p.Validate(s.t.Ranks()); err != nil {
		return false
	}
	s.budget -= need
	s.runs += need
	out, err := s.t.Run(s.ctx, p)
	if err != nil || out.ErrorKind == "cancelled" {
		return false
	}
	if s.inv == "replay" {
		again, err := s.t.Run(s.ctx, p)
		if err != nil || again.ErrorKind == "cancelled" {
			return false
		}
		return replayViolation(out, again) != nil
	}
	return hasInvariant(checkOutcome(s.class, s.clean, out, s.b), s.inv)
}

// atom is one removable fault coordinate of a plan.
type atom struct {
	kind int // 0 crash, 1 link, 2 degraded
	rank int
	at   float64
	link sim.LinkFault
	deg  sim.DegradedLink
}

// planAtoms decomposes a plan into its atoms in deterministic order.
func planAtoms(p *sim.FaultPlan) []atom {
	var atoms []atom
	ranks := make([]int, 0, len(p.Crashes))
	for r := range p.Crashes {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		atoms = append(atoms, atom{kind: 0, rank: r, at: p.Crashes[r]})
	}
	for _, l := range p.Links {
		atoms = append(atoms, atom{kind: 1, link: l})
	}
	for _, d := range p.Degraded {
		atoms = append(atoms, atom{kind: 2, deg: d})
	}
	return atoms
}

// atomsPlan rebuilds a plan from a subset of atoms, preserving the base
// plan's Seed, Respawn and RebootTime (the non-coordinate fields).
func atomsPlan(base *sim.FaultPlan, atoms []atom) *sim.FaultPlan {
	p := &sim.FaultPlan{Seed: base.Seed, Respawn: base.Respawn, RebootTime: base.RebootTime}
	for _, a := range atoms {
		switch a.kind {
		case 0:
			if p.Crashes == nil {
				p.Crashes = map[int]float64{}
			}
			p.Crashes[a.rank] = a.at
		case 1:
			p.Links = append(p.Links, a.link)
		default:
			p.Degraded = append(p.Degraded, a.deg)
		}
	}
	return p
}

// ddmin is the classic delta-debugging minimizer over the plan's atoms:
// it returns a subset such that removing any single remaining atom no
// longer triggers the invariant (1-minimality), or the best subset found
// when the budget runs dry.
func (s *shrinker) ddmin(base *sim.FaultPlan, atoms []atom) []atom {
	n := 2
	for len(atoms) >= 2 {
		chunk := (len(atoms) + n - 1) / n
		reduced := false
		for start := 0; start < len(atoms); start += chunk {
			end := start + chunk
			if end > len(atoms) {
				end = len(atoms)
			}
			// Try the complement of this chunk.
			complement := append(append([]atom(nil), atoms[:start]...), atoms[end:]...)
			if len(complement) > 0 && s.fails(atomsPlan(base, complement)) {
				atoms = complement
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(atoms) {
				break
			}
			n = min(2*n, len(atoms))
		}
	}
	return atoms
}

// concreteTries caps how many enumerated links a wildcard-narrowing step
// samples before settling for a half-open wildcard.
const concreteTries = 8

// shrinkFields minimizes the surviving atoms field by field: probabilities
// are zeroed then halved toward a floor, wildcards narrowed to concrete or
// half-open links, degradation windows bisected and factors halved toward
// 1. Each accepted mutation strictly reduces the plan's coordinate weight
// or its magnitude; rejected mutations are rolled back.
func (s *shrinker) shrinkFields(base *sim.FaultPlan, atoms []atom) []atom {
	try := func(i int, mutate func(*atom)) bool {
		saved := atoms[i]
		mutate(&atoms[i])
		if s.fails(atomsPlan(base, atoms)) {
			return true
		}
		atoms[i] = saved
		return false
	}
	for i := range atoms {
		switch atoms[i].kind {
		case 1:
			// Zero each probability that another one can carry alone.
			try(i, func(a *atom) { a.link.DupProb = 0 })
			try(i, func(a *atom) { a.link.CorruptProb = 0 })
			try(i, func(a *atom) { a.link.DropProb = 0 })
			// Halve the surviving probabilities toward 0.01.
			for _, f := range []func(*atom) *float64{
				func(a *atom) *float64 { return &a.link.DropProb },
				func(a *atom) *float64 { return &a.link.DupProb },
				func(a *atom) *float64 { return &a.link.CorruptProb },
			} {
				for *f(&atoms[i]) >= 0.02 {
					prev := *f(&atoms[i])
					if !try(i, func(a *atom) { *f(a) = prev / 2 }) {
						break
					}
				}
			}
			s.narrowLink(base, atoms, i)
		case 2:
			// Bisect the window while a half still reproduces.
			for {
				w := atoms[i].deg
				until := w.Until
				if until == 0 {
					until = s.sp.Makespan
				}
				if mid := (w.From + until) / 2; mid > w.From && mid < until {
					if try(i, func(a *atom) { a.deg.Until = mid }) {
						continue
					}
					if try(i, func(a *atom) { a.deg.From = mid }) {
						continue
					}
				}
				break
			}
			// Halve the inflation factors toward 1.
			for atoms[i].deg.AlphaFactor > 2 || atoms[i].deg.BetaFactor > 2 {
				a0, b0 := atoms[i].deg.AlphaFactor, atoms[i].deg.BetaFactor
				if !try(i, func(a *atom) {
					a.deg.AlphaFactor = max64(1, a0/2)
					a.deg.BetaFactor = max64(1, b0/2)
				}) {
					break
				}
			}
			s.narrowDegraded(base, atoms, i)
		}
	}
	return atoms
}

// narrowLink replaces a link rule's wildcards with the narrowest scope that
// still reproduces: a concrete enumerated link first, then a half-open
// wildcard (one endpoint pinned).
func (s *shrinker) narrowLink(base *sim.FaultPlan, atoms []atom, i int) {
	l := atoms[i].link
	if l.Src != -1 && l.Dst != -1 {
		return
	}
	match := func(c Link) bool {
		return (l.Src == -1 || l.Src == c.Src) && (l.Dst == -1 || l.Dst == c.Dst)
	}
	tried := 0
	for _, c := range s.sp.Links {
		if !match(c) || tried >= concreteTries {
			continue
		}
		tried++
		saved := atoms[i]
		atoms[i].link.Src, atoms[i].link.Dst = c.Src, c.Dst
		if s.fails(atomsPlan(base, atoms)) {
			return
		}
		atoms[i] = saved
	}
	// No single concrete link carries it; pin one endpoint.
	if l.Src == -1 && l.Dst == -1 {
		for _, c := range s.sp.Links[:min(concreteTries, len(s.sp.Links))] {
			saved := atoms[i]
			atoms[i].link.Dst = c.Dst
			if s.fails(atomsPlan(base, atoms)) {
				return
			}
			atoms[i] = saved
			atoms[i].link.Src = c.Src
			if s.fails(atomsPlan(base, atoms)) {
				return
			}
			atoms[i] = saved
		}
	}
}

// narrowDegraded pins a degraded-window rule's wildcard endpoints the same
// way narrowLink does.
func (s *shrinker) narrowDegraded(base *sim.FaultPlan, atoms []atom, i int) {
	d := atoms[i].deg
	if d.Src != -1 && d.Dst != -1 {
		return
	}
	tried := 0
	for _, c := range s.sp.Links {
		if (d.Src != -1 && d.Src != c.Src) || (d.Dst != -1 && d.Dst != c.Dst) {
			continue
		}
		if tried >= concreteTries {
			break
		}
		tried++
		saved := atoms[i]
		atoms[i].deg.Src, atoms[i].deg.Dst = c.Src, c.Dst
		if s.fails(atomsPlan(base, atoms)) {
			return
		}
		atoms[i] = saved
	}
}

// shrink minimizes the plan: ddmin removes whole atoms, then the surviving
// atoms are narrowed field by field, then ddmin runs once more in case a
// narrowed atom freed another for removal. Returns the minimized plan.
func (s *shrinker) shrink(p *sim.FaultPlan) *sim.FaultPlan {
	atoms := planAtoms(p)
	atoms = s.ddmin(p, atoms)
	atoms = s.shrinkFields(p, atoms)
	if len(atoms) > 1 {
		atoms = s.ddmin(p, atoms)
	}
	return atomsPlan(p, atoms)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
