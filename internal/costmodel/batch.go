package costmodel

import (
	"math"

	"catamount/internal/hw"
)

// Batched cost vectors: structure-of-arrays companions to Costs/OpCost for
// evaluating one backend over many sweep points at once. The per-op view
// exploits graph program deduplication — a training graph's thousands of
// nodes share a few dozen distinct cost expressions — so per-node values
// are (kind, index) gathers into a small unique-value matrix instead of
// materialized []OpCost slices per point.
//
// Bit-for-bit contract: for every row r, StepTimesBatch and the bounds it
// fills equal the scalar StepTime/Bound on the materialized Costs of that
// row. Both paths run the identical per-op arithmetic (opSidesClass) and
// accumulate per row in the same node order.

// OpsBatch is the per-op cost breakdown for a batch of rows. For node i at
// row r, FLOPs are Uniq[FLOPIx[i]*Rows + r] and bytes are
// Uniq[ByteIx[i]*Rows + r].
type OpsBatch struct {
	// Rows is the number of evaluation points.
	Rows int
	// Kinds holds each node's op kind, in graph Nodes() order.
	Kinds []string
	// Classes optionally holds each kind's resolved efficiency class
	// (ClassFor of each Kinds entry). Producers that price many batches
	// should fill it once; per-op pricing then skips the per-node class
	// lookup, which otherwise dominates the batched hot loop.
	Classes []Class
	// FLOPIx / ByteIx map each node to its row vector in Uniq.
	FLOPIx []int32
	ByteIx []int32
	// Uniq holds the unique cost-program results, program-major:
	// Uniq[k*Rows : (k+1)*Rows] is unique program k across all rows.
	Uniq []float64
}

// At materializes one node's cost at one row.
func (ob *OpsBatch) At(node, row int) OpCost {
	return OpCost{
		Kind:  ob.Kinds[node],
		FLOPs: ob.Uniq[int(ob.FLOPIx[node])*ob.Rows+row],
		Bytes: ob.Uniq[int(ob.ByteIx[node])*ob.Rows+row],
	}
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

// At materializes one row's graph-level cost vector (without per-op
// detail; per-op backends consume the batch directly).
func (c *CostsBatch) At(row int) Costs {
	return Costs{FLOPs: c.FLOPs[row], Bytes: c.Bytes[row]}
}

// BatchModel is the optional capability of backends that evaluate a whole
// batch of points in one pass. Both built-in backends implement it.
type BatchModel interface {
	Model
	// StepTimesBatch estimates seconds per training step for every row,
	// writing into dst (grown as needed and returned). When bounds is
	// non-nil it must hold Rows entries and receives each row's limiting
	// resource, matching the scalar Bound verdict.
	StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StepTimesBatch implements BatchModel with the graph-level formula per
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

// StepTimesBatch implements BatchModel: one pass over the node list, with
// each node's unique-value row vectors feeding every row's accumulator, so
// the program table is walked once per batch instead of once per point.
// Per-row accumulation runs in node order with the scalar arithmetic.
func (PerOpRoofline) StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64 {
	if c.Ops == nil {
		return GraphRoofline{}.StepTimesBatch(acc, c, dst, bounds)
	}
	rows := c.Rows
	dst = growFloat(dst, rows)
	clear(dst)
	var tc, tb []float64
	if bounds != nil {
		tc = make([]float64, rows)
		tb = make([]float64, rows)
	}
	xc := acc.AchievableCompute * acc.PeakFLOPS
	xa := acc.AchievableMemBW * acc.MemBandwidth
	ridge := xc / xa
	ob := c.Ops
	classes := ob.Classes
	if len(classes) != len(ob.Kinds) {
		classes = nil
	}
	for n := range ob.Kinds {
		var cl Class
		if classes != nil {
			cl = classes[n]
		} else {
			cl = ClassFor(ob.Kinds[n])
		}
		f := ob.Uniq[int(ob.FLOPIx[n])*rows:][:rows]
		b := ob.Uniq[int(ob.ByteIx[n])*rows:][:rows]
		for r := 0; r < rows; r++ {
			ct, at := opSidesClass(cl, f[r], b[r], xc, xa, ridge)
			dst[r] += math.Max(ct, at)
			if bounds != nil {
				tc[r] += ct
				tb[r] += at
			}
		}
	}
	if bounds != nil {
		for r := 0; r < rows; r++ {
			if tc[r] >= tb[r] {
				bounds[r] = BoundCompute
			} else {
				bounds[r] = BoundBandwidth
			}
		}
	}
	return dst
}

// AsBatch returns the backend's batched evaluator. Both built-in backends
// implement BatchModel natively; for a third-party Model without the
// capability it returns a row-at-a-time adapter, so callers can always
// take the batched path.
func AsBatch(m Model) BatchModel {
	if bm, ok := m.(BatchModel); ok {
		return bm
	}
	return scalarAdapter{m}
}

// scalarAdapter runs a scalar-only backend row by row. Per-op rows are
// materialized one node at a time; this is the compatibility slow path.
type scalarAdapter struct{ Model }

func (a scalarAdapter) StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64 {
	dst = growFloat(dst, c.Rows)
	var ops []OpCost
	needOps := NeedsOpCosts(a.Model) && c.Ops != nil
	for r := 0; r < c.Rows; r++ {
		cost := c.At(r)
		if needOps {
			ops = ops[:0]
			for n := range c.Ops.Kinds {
				ops = append(ops, c.Ops.At(n, r))
			}
			cost.Ops = ops
		}
		dst[r] = a.StepTime(acc, cost)
		if bounds != nil {
			bounds[r] = a.Bound(acc, cost)
		}
	}
	return dst
}
