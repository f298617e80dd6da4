package sim_test

import (
	"testing"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// BenchmarkBackend25D times the engine on the bench harness's big point
// (2.5D Cannon, p = q²·c = 16384), the configuration BENCH_sim.json
// records at p = 16384.
func BenchmarkBackend25D(b *testing.B) {
	const n, q, c = 256, 64, 4
	a := matrix.Random(n, n, 1)
	bb := matrix.Random(n, n, 2)
	cost := sim.Cost{GammaT: 1e-11, BetaT: 1e-10, AlphaT: 1e-6, ChanCap: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := matmul.TwoPointFiveD(cost, q, c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}
