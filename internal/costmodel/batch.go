package costmodel

import (
	"math"

	"catamount/internal/hw"
)

// Batched cost vectors: structure-of-arrays companions to Costs/OpCost for
// evaluating one backend over many sweep points at once. The per-op view
// exploits graph program deduplication: a training graph's thousands of
// nodes share a few dozen distinct (kernel class, FLOP program, byte
// program) triples, so per-op pricing runs once per distinct op and row,
// and each node is an index into that table instead of a materialized
// []OpCost entry per point.
//
// Bit-for-bit contract: for every row r, StepTimesBatch and the bounds it
// fills equal the scalar StepTime/Bound on the materialized Costs of that
// row. Both paths price each node with the identical per-op arithmetic
// (opSidesClass) and accumulate per row in the same node order; the
// batched path only prices each distinct op once and reuses the result for
// every node that shares it.

// DistinctOp is one distinct per-op pricing problem: an efficiency class
// and the row vectors of its FLOP and byte programs in OpsBatch.Uniq.
type DistinctOp struct {
	Class          Class
	FLOPIx, ByteIx int32
}

// OpsBatch is the per-op cost breakdown for a batch of rows. Node i prices
// as Distinct[NodeOp[i]]; for distinct op k at row r, FLOPs are
// Uniq[Distinct[k].FLOPIx*Rows + r] and bytes Uniq[Distinct[k].ByteIx*Rows + r].
type OpsBatch struct {
	// Rows is the number of evaluation points.
	Rows int
	// Distinct is the distinct-op table, shared by every batch of a graph.
	Distinct []DistinctOp
	// NodeOp maps each node, in graph Nodes() order, to its Distinct entry.
	NodeOp []int32
	// Uniq holds the unique cost-program results, program-major:
	// Uniq[p*Rows : (p+1)*Rows] is unique program p across all rows.
	Uniq []float64
}

// CostsBatch is the evaluated cost vectors of a batch of training-step
// points. FLOPs and Bytes hold per-row graph totals; Ops carries the
// shared per-op breakdown and is nil when no per-op backend will consume
// the batch (see NeedsOpCosts).
type CostsBatch struct {
	Rows  int
	FLOPs []float64
	Bytes []float64
	Ops   *OpsBatch
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StepTimesBatch implements Model with the graph-level formula per
// row, bit-identical to StepTime/Bound on each row's totals.
func (GraphRoofline) StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64 {
	dst = growFloat(dst, c.Rows)
	for r := 0; r < c.Rows; r++ {
		dst[r] = acc.StepTime(c.FLOPs[r], c.Bytes[r])
		if bounds != nil {
			if acc.ComputeBound(c.FLOPs[r], c.Bytes[r]) {
				bounds[r] = BoundCompute
			} else {
				bounds[r] = BoundBandwidth
			}
		}
	}
	return dst
}

// StepTimesBatch implements Model. Each distinct op is priced once
// per row; each row then sums its nodes' prices in node order, so every
// summand and the summation order match the scalar StepTime and Bound.
func (PerOpRoofline) StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64 {
	if c.Ops == nil {
		return GraphRoofline{}.StepTimesBatch(acc, c, dst, bounds)
	}
	rows := c.Rows
	ob := c.Ops
	xc := acc.AchievableCompute * acc.PeakFLOPS
	xa := acc.AchievableMemBW * acc.MemBandwidth
	ridge := xc / xa
	// prices[k] is distinct op k's time, compute side and bandwidth side
	// at the current row.
	type price struct{ t, ct, at float64 }
	prices := make([]price, len(ob.Distinct))
	dst = growFloat(dst, rows)
	for r := range rows {
		for k, op := range ob.Distinct {
			f, b := ob.Uniq[int(op.FLOPIx)*rows+r], ob.Uniq[int(op.ByteIx)*rows+r]
			ct, at := opSidesClass(op.Class, f, b, xc, xa, ridge)
			prices[k] = price{math.Max(ct, at), ct, at}
		}
		var t, tc, tb float64
		for _, k := range ob.NodeOp {
			p := &prices[k]
			t += p.t
			tc += p.ct
			tb += p.at
		}
		dst[r] = t
		if bounds != nil {
			if tc >= tb {
				bounds[r] = BoundCompute
			} else {
				bounds[r] = BoundBandwidth
			}
		}
	}
	return dst
}
