package obs

import (
	"fmt"

	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

// PowerProfile is the machine's power draw over time, reconstructed from a
// collected run. The paper bounds *average* power (§V.D–E: P = E/T); the
// profile exposes the peak as well — the quantity a real power cap
// actually clips.
type PowerProfile struct {
	// BucketStart[i] is the left edge of bucket i; buckets are uniform.
	BucketStart []float64
	// Power[i] is the average machine power within bucket i, in watts.
	Power []float64
	// Peak and Avg are the maximum bucket power and the overall E/T.
	Peak, Avg float64
	// StaticPower is the always-on floor: Σ ranks (δe·M + εe).
	StaticPower float64
	// TotalEnergy is the integral of the profile.
	TotalEnergy float64
}

// NewPowerProfile reconstructs the power timeline of a run observed by col:
// every segment deposits its energy (compute: γe·F; communication:
// βe·W + αe·S) uniformly over its duration, and every rank draws its
// static memory and leakage power for the whole run. The integral of the
// profile equals core.PriceSim's total by construction — tested, not
// assumed.
//
// Requires strictly positive timing parameters: zero-duration segments
// carry energy that cannot be placed on a timeline.
func NewPowerProfile(m machine.Params, res *sim.Result, col *Collector, buckets int) (*PowerProfile, error) {
	if col == nil {
		return nil, fmt.Errorf("obs: run was not observed (pass a Collector in Cost.Observers)")
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("obs: need at least one bucket")
	}
	T := res.Time()
	if T <= 0 {
		return nil, fmt.Errorf("obs: zero-length run has no profile")
	}
	width := T / float64(buckets)
	energy := make([]float64, buckets)

	deposit := func(start, end, joules float64) {
		perTime := joules / (end - start)
		for b := int(start / width); b < buckets; b++ {
			lo := float64(b) * width
			hi := lo + width
			overlap := min(end, hi) - max(start, lo)
			if overlap <= 0 {
				break
			}
			energy[b] += perTime * overlap
		}
	}

	static := 0.0
	for rank, segs := range spans(col) {
		static += m.DeltaE*res.PerRank[rank].PeakMemWords + m.EpsilonE
		for _, s := range segs {
			var joules float64
			switch s.Kind {
			case KindCompute:
				joules = m.GammaE * s.Flops
			case KindSend:
				joules = m.BetaE*float64(s.Words) + m.AlphaE*s.Msgs
			}
			deposit(s.Start, s.End, joules)
		}
	}

	prof := &PowerProfile{
		BucketStart: make([]float64, buckets),
		Power:       make([]float64, buckets),
		StaticPower: static,
	}
	total := 0.0
	for b := 0; b < buckets; b++ {
		prof.BucketStart[b] = float64(b) * width
		prof.Power[b] = energy[b]/width + static
		total += energy[b] + static*width
		if prof.Power[b] > prof.Peak {
			prof.Peak = prof.Power[b]
		}
	}
	prof.TotalEnergy = total
	prof.Avg = total / T
	return prof, nil
}
