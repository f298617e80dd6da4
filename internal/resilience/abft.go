package resilience

import (
	"fmt"
	"math"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// Result bundles the assembled product and the simulation statistics of a
// fault-tolerant run; the Stats include every detection, recovery and
// replay cost, so core.PriceSim prices resilience like any other work.
type Result struct {
	C   *matrix.Dense
	Sim *sim.Result
}

// ABFT25D computes C = A·B on a q×q×c cuboid of p = q²·c ranks with the
// SUMMA-based 2.5D algorithm, hardened against the rank crashes of a
// sim.FaultPlan (which must set Respawn when it schedules crashes).
//
// The 2.5D replication factor c doubles as the redundancy of the scheme:
// after the fiber-replication step every rank in a fiber holds identical
// resident A and B blocks, and the SUMMA variant never mutates them (unlike
// Cannon's shifts), so a crashed rank can
//
//   - restore its resident blocks from any live fiber sibling (phase A), and
//   - rebuild its partial C by replaying the outer-product panels it has
//     already consumed, re-fetching each panel from its in-layer owner and
//     recomputing the multiply (phase B).
//
// Failure detection is a world-wide all-reduce of a p-word crash bitmap
// after the replication step and after every panel step; its cost, like the
// recovery traffic and the replayed flops, is charged to the normal
// counters. All inter-layer (fiber) traffic — replication, detection and
// the final reduction of partial C blocks — travels over the checksummed
// ARQ endpoint with its timers disabled (an infinite RTO), so corruption
// injected on fiber links is masked; the intra-layer panel broadcasts stay
// on raw channels.
//
// A crash is unrecoverable when every rank of a fiber crashes in the same
// round — in particular always when c = 1, where the algorithm degenerates
// to plain SUMMA with detection but no redundancy.
//
// With a fault-free plan the result and per-rank Stats are identical to an
// un-hardened run plus the detection and checksum overhead; with a given
// seeded plan both are byte-identical across runs.
func ABFT25D(cost sim.Cost, q, c int, a, b *matrix.Dense) (*Result, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return nil, fmt.Errorf("resilience: need equal square operands, got %dx%d and %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	if q <= 0 || n%q != 0 {
		return nil, fmt.Errorf("resilience: matrix size %d not divisible by grid size %d", n, q)
	}
	if c <= 0 || q%c != 0 {
		return nil, fmt.Errorf("resilience: replication factor %d must divide grid size %d", c, q)
	}
	if fp := cost.Faults; fp != nil && len(fp.Crashes) > 0 && !fp.Respawn {
		return nil, fmt.Errorf("resilience: ABFT recovery needs FaultPlan.Respawn (hard crashes kill the rank before recovery can run)")
	}
	nb := n / q
	grid, err := sim.NewGrid3D(q, c, q*q*c)
	if err != nil {
		return nil, err
	}
	layer0 := grid.LayerGrid()
	cBlocks := make([]*matrix.Dense, q*q)
	panelsPerLayer := q / c

	res, err := sim.Run(q*q*c, cost, func(r *sim.Rank) error {
		row, col, layer := grid.Coords(r.ID())
		rowComm, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colComm, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		r.Alloc(3 * nb * nb)
		st := &abftRank{
			r: r, arq: NewARQ(r, ARQConfig{RTO: math.Inf(1)}), grid: grid,
			nb: nb, panels: panelsPerLayer,
		}

		// Replicate the layer-0 blocks down the fiber over the reliable
		// endpoint, so corruption injected on fiber links is masked.
		if layer == 0 {
			st.aBlk = a.Block(row*nb, col*nb, nb, nb)
			st.bBlk = b.Block(row*nb, col*nb, nb, nb)
			for l := 1; l < c; l++ {
				if err := st.sendBlocks(grid.RankAt(row, col, l)); err != nil {
					return err
				}
			}
		} else if err := st.recvBlocks(grid.RankAt(row, col, 0)); err != nil {
			return err
		}
		st.cBlk = matrix.New(nb, nb)

		if err := st.detectAndRecover(); err != nil {
			return err
		}
		for s := 0; s < panelsPerLayer; s++ {
			t := layer*panelsPerLayer + s
			aPanel := rowComm.BcastLarge(t, dataIf(col == t, st.aBlk))
			bPanel := colComm.BcastLarge(t, dataIf(row == t, st.bBlk))
			matrix.MulAdd(st.cBlk, matrix.FromData(nb, nb, aPanel), matrix.FromData(nb, nb, bPanel))
			r.Compute(matrix.MulFlops(nb, nb, nb))
			st.done++
			if err := st.detectAndRecover(); err != nil {
				return err
			}
		}

		// Sum the partial C blocks onto layer 0 over the reliable endpoint
		// (linear in c — the replication factor is small by construction).
		if layer != 0 {
			return st.arq.Send(grid.RankAt(row, col, 0), st.cBlk.Data)
		}
		for l := 1; l < c; l++ {
			contrib, err := st.arq.Recv(grid.RankAt(row, col, l))
			if err != nil {
				return err
			}
			r.Compute(float64(len(contrib)))
			for i, v := range contrib {
				st.cBlk.Data[i] += v
			}
		}
		cBlocks[layer0.RankAt(row, col)] = st.cBlk
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := matrix.New(n, n)
	for id, blk := range cBlocks {
		if blk == nil {
			continue
		}
		brow, bcol := layer0.Coords(id)
		out.SetBlock(brow*nb, bcol*nb, blk)
	}
	return &Result{C: out, Sim: res}, nil
}

// abftRank is the per-rank state the recovery protocol operates on.
type abftRank struct {
	r    *sim.Rank
	arq  *ARQ
	grid sim.Grid3D
	nb   int
	// panels is the number of panel steps per layer (q/c); done counts the
	// steps this rank has completed, i.e. how much of cBlk a replay must
	// reconstruct.
	panels int
	done   int
	aBlk   *matrix.Dense
	bBlk   *matrix.Dense
	cBlk   *matrix.Dense
}

// detectAndRecover runs one failure-detection round and, when the bitmap
// reports casualties, the two-phase recovery. Every rank derives the same
// schedule from the same bitmap, so the point-to-point recovery traffic
// pairs up without further coordination.
func (st *abftRank) detectAndRecover() error {
	bitmap, err := crashBitmap(st.arq)
	if err != nil {
		return err
	}
	var crashed []int
	for id, v := range bitmap {
		if v > 0 {
			crashed = append(crashed, id)
		}
	}
	if len(crashed) == 0 {
		return nil
	}
	nb, grid := st.nb, st.grid
	// A crashed rank's application data is gone; scrub it so an incomplete
	// recovery poisons the result instead of silently passing.
	if bitmap[st.r.ID()] > 0 {
		scrub(st.aBlk.Data)
		scrub(st.bBlk.Data)
		scrub(st.cBlk.Data)
	}
	// Phase A: restore every casualty's resident blocks from the first
	// fiber sibling that did not crash this round.
	for _, d := range crashed {
		rd, cd, _ := grid.Coords(d)
		donor := -1
		for l := 0; l < grid.Layers; l++ {
			if cand := grid.RankAt(rd, cd, l); cand != d && bitmap[cand] == 0 {
				donor = cand
				break
			}
		}
		if donor < 0 {
			return fmt.Errorf("resilience: rank %d unrecoverable: every replica in its fiber crashed (c=%d)", d, grid.Layers)
		}
		switch st.r.ID() {
		case donor:
			err = st.sendBlocks(d)
		case d:
			err = st.recvBlocks(donor)
		}
		if err != nil {
			return err
		}
	}
	// Phase B: rebuild every casualty's partial C by replaying the panel
	// steps it has completed, re-fetching each panel from its in-layer
	// owner (whose resident block phase A made valid if it, too, crashed).
	for _, d := range crashed {
		rd, cd, ld := grid.Coords(d)
		if st.r.ID() == d {
			st.cBlk = matrix.New(nb, nb)
		}
		for s := 0; s < st.done; s++ {
			t := ld*st.panels + s
			aOwner := grid.RankAt(rd, t, ld)
			bOwner := grid.RankAt(t, cd, ld)
			if st.r.ID() == aOwner && aOwner != d {
				if err := st.arq.Send(d, st.aBlk.Data); err != nil {
					return err
				}
			}
			if st.r.ID() == bOwner && bOwner != d {
				if err := st.arq.Send(d, st.bBlk.Data); err != nil {
					return err
				}
			}
			if st.r.ID() == d {
				aPanel := st.aBlk.Data
				if aOwner != d {
					if aPanel, err = st.arq.Recv(aOwner); err != nil {
						return err
					}
				}
				bPanel := st.bBlk.Data
				if bOwner != d {
					if bPanel, err = st.arq.Recv(bOwner); err != nil {
						return err
					}
				}
				matrix.MulAdd(st.cBlk, matrix.FromData(nb, nb, aPanel), matrix.FromData(nb, nb, bPanel))
				st.r.Compute(matrix.MulFlops(nb, nb, nb))
			}
		}
	}
	return nil
}

// sendBlocks ships the resident A and B blocks to dst.
func (st *abftRank) sendBlocks(dst int) error {
	if err := st.arq.Send(dst, st.aBlk.Data); err != nil {
		return err
	}
	return st.arq.Send(dst, st.bBlk.Data)
}

// recvBlocks installs the resident A and B blocks sent by src.
func (st *abftRank) recvBlocks(src int) error {
	data, err := st.arq.Recv(src)
	if err != nil {
		return err
	}
	st.aBlk = matrix.FromData(st.nb, st.nb, data)
	if data, err = st.arq.Recv(src); err != nil {
		return err
	}
	st.bBlk = matrix.FromData(st.nb, st.nb, data)
	return nil
}

// crashBitmap is one failure-detection round: each rank contributes its
// TakeCrashed flag and a reliable all-reduce gives everyone the same p-word
// view. Riding on ARQ matters: a corrupted raw collective could plant
// phantom crashes in half the machine and desynchronize the recovery
// schedule.
func crashBitmap(a *ARQ) ([]float64, error) {
	bm := make([]float64, a.r.P())
	if a.r.TakeCrashed() {
		bm[a.r.ID()] = 1
	}
	return a.AllReduceSum(bm)
}

// scrub overwrites lost data with NaN so it can never masquerade as valid.
func scrub(xs []float64) {
	for i := range xs {
		xs[i] = math.NaN()
	}
}

// dataIf returns the block's data when cond holds, else nil (non-roots pass
// nil into broadcasts).
func dataIf(cond bool, blk *matrix.Dense) []float64 {
	if cond {
		return blk.Data
	}
	return nil
}
