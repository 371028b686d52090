package graph

import "catamount/internal/symbolic"

// Batched structure-of-arrays evaluation over a Compiled bundle: callers
// fill a symbolic.Batch with one row per sweep point, then evaluate the
// graph's deduplicated program tables once for all rows. Combined with
// program dedup this turns "evaluate 47k node programs per point" into
// "evaluate ~90 unique programs per batch", which is what lets the per-op
// cost-model backend keep pace with the graph-level one.

// NewBatch allocates a slot batch sized for the bundle's symbol table.
func (c *Compiled) NewBatch(rows int) *symbolic.Batch {
	return c.Syms.NewBatch(rows)
}

// BatchScratch holds the reusable buffers for batched Compiled evaluation:
// one per evaluating goroutine. The zero value is ready to use.
type BatchScratch struct {
	// Eval is the shared operand stack for program evaluation.
	Eval symbolic.BatchScratch

	uniq   []float64
	params []float64
	flops  []float64
	bytes  []float64
}

// CostIndexes returns the per-node indices (in Nodes() order) into the
// unique node-cost matrix produced by NodeCostsBatch: node i's FLOPs live
// at unique row flopIx[i], its bytes at byteIx[i]. The returned slices are
// shared and must not be modified.
func (c *Compiled) CostIndexes() (flopIx, byteIx []int32) {
	return c.nodeFLOPIx, c.nodeByteIx
}

// NumCostPrograms returns the number of unique node-cost programs.
func (c *Compiled) NumCostPrograms() int { return len(c.costProgs) }

// CostValues evaluates the unique node-cost programs for one slot binding
// into dst (grown as needed and returned). Per-node values are gathers
// through CostIndexes — the scalar counterpart of NodeCostsBatch.
func (c *Compiled) CostValues(slots []float64, dst []float64) []float64 {
	return evalPrograms(c.costProgs, slots, dst)
}

// NodeCostsBatch evaluates every unique node-cost program over the batch,
// writing program k's row vector at dst[k*rows : (k+1)*rows] (grown as
// needed and returned). Per-node values are gathers through CostIndexes:
// node i's FLOPs for row r sit at dst[flopIx[i]*rows + r].
func (c *Compiled) NodeCostsBatch(b *symbolic.Batch, dst []float64, s *symbolic.BatchScratch) []float64 {
	return symbolic.EvalAllBatch(c.costProgs, b, dst, s)
}

// TensorIndex returns tensor i's size class (i in Tensors() order): its
// row in the unique tensor-byte matrix produced by TensorBytesBatch.
func (c *Compiled) TensorIndex(i int) int32 { return c.wiring.init[i].class }

// NumTensorPrograms returns the number of unique tensor-byte programs.
func (c *Compiled) NumTensorPrograms() int { return len(c.tensorProgs) }

// TensorValues evaluates the unique tensor-byte programs for one slot
// binding into dst (grown as needed and returned). Per-tensor values are
// gathers through TensorIndex — the scalar counterpart of
// TensorBytesBatch.
func (c *Compiled) TensorValues(slots []float64, dst []float64) []float64 {
	return evalPrograms(c.tensorProgs, slots, dst)
}

// TensorBytesBatch evaluates every unique tensor-byte program over the
// batch, writing program k's row vector at dst[k*rows : (k+1)*rows] (grown
// as needed and returned).
func (c *Compiled) TensorBytesBatch(b *symbolic.Batch, dst []float64, s *symbolic.BatchScratch) []float64 {
	return symbolic.EvalAllBatch(c.tensorProgs, b, dst, s)
}

// EvalStatsBatch computes headline stats for every batch row, writing into
// dst (grown as needed and returned). Row results are bit-for-bit identical
// to EvalStats on the same slot values: per-node FLOPs and bytes accumulate
// in Nodes() order within each row.
func (c *Compiled) EvalStatsBatch(b *symbolic.Batch, dst []Stats, s *BatchScratch) []Stats {
	rows := b.Rows()
	if cap(dst) < rows {
		dst = make([]Stats, rows)
	}
	dst = dst[:rows]
	if rows == 0 {
		return dst
	}
	s.uniq = symbolic.EvalAllBatch(c.costProgs, b, s.uniq, &s.Eval)
	s.params = c.ParamCount.EvalBatchInto(b, s.params, &s.Eval)
	s.flops = growZero(s.flops, rows)
	s.bytes = growZero(s.bytes, rows)
	for i := range c.nodeFLOPIx {
		f := s.uniq[int(c.nodeFLOPIx[i])*rows:][:rows]
		bt := s.uniq[int(c.nodeByteIx[i])*rows:][:rows]
		for r := 0; r < rows; r++ {
			s.flops[r] += f[r]
			s.bytes[r] += bt[r]
		}
	}
	for r := 0; r < rows; r++ {
		st := Stats{Params: s.params[r], FLOPs: s.flops[r], Bytes: s.bytes[r]}
		if st.Bytes > 0 {
			st.Intensity = st.FLOPs / st.Bytes
		}
		dst[r] = st
	}
	return dst
}

func growZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FootprintScratch holds every buffer the footprint simulation needs —
// the row's distinct tensor sizes, one 8-byte record per tensor, per-node
// in-degrees, the ready set and the traversal order — so repeated
// footprint evaluation allocates nothing in steady state. One per
// goroutine; the zero value is ready.
type FootprintScratch struct {
	sizes []float64
	sim   footprintSim
}

// FootprintFromBatch runs the schedule simulation for one row of a batched
// tensor-byte matrix previously produced by TensorBytesBatch over a batch
// of `rows` rows. The simulation reads each tensor's size from the row's
// distinct sizes through its size class (TensorIndex), and walks the int32
// wiring flattened at Compile time. The returned Order aliases the scratch
// and is valid until the next call.
func (c *Compiled) FootprintFromBatch(uniq []float64, rows, row int, policy SchedulePolicy, fs *FootprintScratch) (ScheduleResult, error) {
	n := len(c.tensorProgs)
	if cap(fs.sizes) < n {
		fs.sizes = make([]float64, n)
	}
	fs.sizes = fs.sizes[:n]
	for k := range fs.sizes {
		fs.sizes[k] = uniq[k*rows+row]
	}
	return fs.sim.run(c.wiring, fs.sizes, policy)
}
