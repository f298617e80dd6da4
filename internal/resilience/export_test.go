package resilience

// DataFrame exposes the wire encoding to tests that forge raw frames at a
// reliable endpoint from a raw sim.Rank peer.
func DataFrame(seq int, payload []float64) []float64 { return dataFrame(seq, payload) }
