// Package cache models the memory-hierarchy effects the case study adds on
// top of algorithmic byte counts (paper §6.1): large tiled matrix multiplies
// must re-stream portions of their inputs from off-chip memory once the
// operands exceed on-chip cache, which lowers achievable utilization (the
// paper's word LM drops from 80% to 46% algorithmic-FLOP utilization).
//
// The tile selection follows the classic square-tile capacity rule (after
// Coleman & McKinley): one output tile plus one stripe of each input must
// fit in cache, giving T = sqrt(cache / (3·elemSize)).
package cache

import (
	"fmt"
	"math"

	"catamount/internal/graph"
	"catamount/internal/ops"
	"catamount/internal/symbolic"
)

// TileModel computes off-chip traffic for tiled GEMMs under a cache budget.
type TileModel struct {
	// CacheBytes is the on-chip cache capacity.
	CacheBytes float64
	// ElemSize is the operand element size in bytes.
	ElemSize float64
	// Concurrency is the number of tiles resident simultaneously: GPUs run
	// one output tile per SM, all sharing the L2, so each tile sees only
	// CacheBytes/Concurrency (~90 KB on a V100-class part — the per-SM
	// scratch size). Zero means 1 (a single monolithic tile).
	Concurrency int
}

// DefaultConcurrency approximates the number of simultaneously resident
// GEMM tiles on a V100-class accelerator.
const DefaultConcurrency = 64

// NewTileModel builds a TileModel for 4-byte elements at the default
// concurrency.
func NewTileModel(cacheBytes float64) TileModel {
	return TileModel{CacheBytes: cacheBytes, ElemSize: 4, Concurrency: DefaultConcurrency}
}

// effectiveCache is the per-tile cache budget.
func (t TileModel) effectiveCache() float64 {
	c := t.Concurrency
	if c < 1 {
		c = 1
	}
	return t.CacheBytes / float64(c)
}

// TileDim is the square tile edge fitting three tiles in the per-tile budget.
func (t TileModel) TileDim() float64 {
	return math.Sqrt(t.effectiveCache() / (3 * t.ElemSize))
}

// MatMulTraffic returns the off-chip bytes moved by a tiled
// C[m,n] = A[m,k]·B[k,n]: A is streamed once per column-tile of C, B once
// per row-tile of C, and each C tile is written once.
func (t TileModel) MatMulTraffic(m, k, n float64) float64 {
	tile := t.TileDim()
	aPasses := math.Max(1, math.Ceil(n/tile))
	bPasses := math.Max(1, math.Ceil(m/tile))
	elems := m*k*aPasses + k*n*bPasses + m*n
	return elems * t.ElemSize
}

// AlgorithmicBytes is the paper's §2.1 count for the same GEMM: inputs read
// once, output written once.
func (t TileModel) AlgorithmicBytes(m, k, n float64) float64 {
	return (m*k + k*n + m*n) * t.ElemSize
}

// Restream is the traffic inflation factor MatMulTraffic/AlgorithmicBytes
// (1.0 when the whole problem fits in one tile pass).
func (t TileModel) Restream(m, k, n float64) float64 {
	return t.MatMulTraffic(m, k, n) / t.AlgorithmicBytes(m, k, n)
}

// TrafficReport summarizes cache-aware traffic for a whole graph.
type TrafficReport struct {
	// AlgorithmicBytes is the §2.1 total.
	AlgorithmicBytes float64
	// CacheAwareBytes adds GEMM re-streaming.
	CacheAwareBytes float64
	// GEMMAlgorithmic and GEMMTraffic isolate the matrix-multiply subset.
	GEMMAlgorithmic, GEMMTraffic float64
	// RestreamFactor is CacheAwareBytes / AlgorithmicBytes.
	RestreamFactor float64
}

// GraphTraffic computes algorithmic and cache-aware byte totals for every
// node in the graph under the binding env. Matrix-multiply-like ops (matmul,
// batched matmul, convolutions and their gradients) use the tile model; all
// other ops stream their operands once.
func GraphTraffic(g *graph.Graph, env symbolic.Env, tm TileModel) (TrafficReport, error) {
	g.WarmCosts() // seal the graph so node costs read the interned expressions
	var rep TrafficReport
	for _, n := range g.Nodes() {
		alg, err := n.Bytes().Eval(env)
		if err != nil {
			return rep, fmt.Errorf("cache: node %s: %w", n.Name, err)
		}
		rep.AlgorithmicBytes += alg
		dims, isGEMM, err := gemmDims(n, env)
		if err != nil {
			return rep, err
		}
		if !isGEMM {
			rep.CacheAwareBytes += alg
			continue
		}
		traffic := tm.MatMulTraffic(dims.m, dims.k, dims.n) * dims.batch
		// Never report less than the algorithmic bytes: the tile model
		// covers only the GEMM operands, while alg may include extras.
		if traffic < alg {
			traffic = alg
		}
		rep.GEMMAlgorithmic += alg
		rep.GEMMTraffic += traffic
		rep.CacheAwareBytes += traffic
	}
	if rep.AlgorithmicBytes > 0 {
		rep.RestreamFactor = rep.CacheAwareBytes / rep.AlgorithmicBytes
	}
	return rep, nil
}

type gemm struct {
	m, k, n float64
	batch   float64
}

// gemmDims extracts effective GEMM dimensions from matrix-multiply-like ops.
func gemmDims(n *graph.Node, env symbolic.Env) (gemm, bool, error) {
	eval := func(e symbolic.Expr) (float64, error) { return e.Eval(env) }
	switch op := n.Op.(type) {
	case ops.MatMul:
		out := n.Outputs[0]
		m, err := eval(out.Shape.Dim(0))
		if err != nil {
			return gemm{}, false, err
		}
		nn, err := eval(out.Shape.Dim(1))
		if err != nil {
			return gemm{}, false, err
		}
		kIdx := 1
		if op.TransA {
			kIdx = 0
		}
		k, err := eval(n.Inputs[0].Shape.Dim(kIdx))
		if err != nil {
			return gemm{}, false, err
		}
		return gemm{m: m, k: k, n: nn, batch: 1}, true, nil

	case ops.BatchedMatMul:
		out := n.Outputs[0]
		bd, err := eval(out.Shape.Dim(0))
		if err != nil {
			return gemm{}, false, err
		}
		m, err := eval(out.Shape.Dim(1))
		if err != nil {
			return gemm{}, false, err
		}
		nn, err := eval(out.Shape.Dim(2))
		if err != nil {
			return gemm{}, false, err
		}
		kIdx := 2
		if op.TransA {
			kIdx = 1
		}
		k, err := eval(n.Inputs[0].Shape.Dim(kIdx))
		if err != nil {
			return gemm{}, false, err
		}
		return gemm{m: m, k: k, n: nn, batch: bd}, true, nil

	case ops.Conv2D, ops.Conv2DGradInput, ops.Conv2DGradWeight:
		// Implicit GEMM: M = N·H'·W', K = R·S·C, N = K_out.
		var y, w *graph.Tensor
		switch n.Op.(type) {
		case ops.Conv2D:
			y, w = n.Outputs[0], n.Inputs[1]
		case ops.Conv2DGradInput:
			y, w = n.Inputs[1], n.Inputs[0]
		default: // grad weight: dims from dY and the produced dW
			y, w = n.Inputs[1], n.Outputs[0]
		}
		nb, err := eval(y.Shape.Dim(0))
		if err != nil {
			return gemm{}, false, err
		}
		hh, err := eval(y.Shape.Dim(1))
		if err != nil {
			return gemm{}, false, err
		}
		ww, err := eval(y.Shape.Dim(2))
		if err != nil {
			return gemm{}, false, err
		}
		r, err := eval(w.Shape.Dim(0))
		if err != nil {
			return gemm{}, false, err
		}
		s, err := eval(w.Shape.Dim(1))
		if err != nil {
			return gemm{}, false, err
		}
		c, err := eval(w.Shape.Dim(2))
		if err != nil {
			return gemm{}, false, err
		}
		kout, err := eval(w.Shape.Dim(3))
		if err != nil {
			return gemm{}, false, err
		}
		return gemm{m: nb * hh * ww, k: r * s * c, n: kout, batch: 1}, true, nil
	}
	return gemm{}, false, nil
}

// UtilizationDrop runs the paper's §6.1 comparison: best-case Roofline
// utilization with algorithmic bytes versus the cache-hierarchy-aware model.
// stepTime returns the roofline max(compute, bytes/bandwidth) terms.
func UtilizationDrop(flops float64, rep TrafficReport,
	stepTime func(flops, bytes float64) float64,
	utilization func(flops, seconds float64) float64) (best, cacheAware float64) {

	best = utilization(flops, stepTime(flops, rep.AlgorithmicBytes))
	cacheAware = utilization(flops, stepTime(flops, rep.CacheAwareBytes))
	return best, cacheAware
}
