package campaign

import "fmt"

// Violation is one invariant a cell's outcome broke.
type Violation struct {
	// Invariant names the broken property: "completes", "numerics",
	// "time-overhead", "energy-overhead", "bounds-floor", "no-wedge",
	// or "replay".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// bands bundles the campaign's overhead ceilings and the communication
// lower bound the invariant checks judge against; artifacts carry them so
// a reproducer can be re-judged from the JSON alone.
type bands struct {
	timeOverhead   float64
	energyOverhead float64
	floor          float64
}

// floorSlack mirrors the conformance bounds family: the floor holds up to
// floating-point summation drift, nothing more.
const floorSlack = 1 - 1e-9

// checkOutcome judges one cell outcome against its class's invariant set.
// The clean baseline supplies the bit-identity reference and the overhead
// denominators. A "cancelled" outcome must never reach this function —
// the engine discards it (real time leaked into the run).
func checkOutcome(class Class, clean, out *Outcome, b bands) []Violation {
	var vios []Violation
	add := func(inv, detail string) { vios = append(vios, Violation{Invariant: inv, Detail: detail}) }

	if !out.Completed {
		switch class {
		case ClassMaskable:
			// A maskable plan injects nothing the stack is allowed to
			// die from.
			add("completes", fmt.Sprintf("maskable plan killed the run: %s: %s", out.ErrorKind, out.Error))
		case ClassGraceful:
			// A graceful plan may kill the run, but only with a typed
			// verdict; a deadlock wedge or an untyped error is a bug.
			if out.ErrorKind != "peer-failure" && out.ErrorKind != "crash" {
				add("no-wedge", fmt.Sprintf("graceful plan ended untyped: %s: %s", out.ErrorKind, out.Error))
			}
		}
		return vios
	}

	// Completed runs of either class: recovery changes when work happens,
	// never what is computed, and can only add words, time and energy.
	if out.OutputDigest != clean.OutputDigest {
		add("numerics", fmt.Sprintf("product digest %s differs from clean %s", out.OutputDigest, clean.OutputDigest))
	}
	if b.floor > 0 && out.MaxWordsMoved < b.floor*floorSlack {
		add("bounds-floor", fmt.Sprintf("busiest-rank words moved %g fell below the composite lower bound %g", out.MaxWordsMoved, b.floor))
	}
	if class != ClassMaskable {
		return vios
	}
	if ratio := out.SimTime / clean.SimTime; ratio < floorSlack || ratio > b.timeOverhead {
		add("time-overhead", fmt.Sprintf("T ratio %.6g outside [1, %g]", ratio, b.timeOverhead))
	}
	if ratio := out.EnergyJ / clean.EnergyJ; ratio < floorSlack || ratio > b.energyOverhead {
		add("energy-overhead", fmt.Sprintf("E ratio %.6g outside [1, %g]", ratio, b.energyOverhead))
	}
	return vios
}

// replayViolation compares two runs of the same plan on the same backend;
// any difference is a determinism violation — the property every other
// guarantee in the repo stands on.
func replayViolation(first, second *Outcome) *Violation {
	if diff, same := first.identical(second); !same {
		return &Violation{Invariant: "replay", Detail: "second run of the same plan differs: " + diff}
	}
	return nil
}

// hasInvariant reports whether the named invariant is among the violations.
func hasInvariant(vios []Violation, name string) bool {
	for _, v := range vios {
		if v.Invariant == name {
			return true
		}
	}
	return false
}
