package graph

import (
	"fmt"
	"slices"

	"catamount/internal/symbolic"
)

// Compiled is a precompiled analysis bundle for one graph: every node's
// FLOP/byte expression and every tensor's byte expression lowered into
// slot-indexed programs against one shared symbol table, the headline
// totals, and the topology flattened for the footprint simulator. Build it
// once per graph, then sweep by writing slot values and running programs —
// no expression re-derivation, no tree walking, no map lookups per point.
//
// A Compiled is immutable after construction and safe for concurrent use;
// callers supply their own slot buffers (NewSlots), one per goroutine.
type Compiled struct {
	Graph *Graph
	// Syms maps symbol names to slot indices for every program below.
	Syms *symbolic.SymTab

	// ParamCount, TotalFLOPs, TotalBytes, and IO are the graph-level totals.
	ParamCount *symbolic.Program
	TotalFLOPs *symbolic.Program
	TotalBytes *symbolic.Program
	IO         *symbolic.Program

	// Deduplicated program tables. Training graphs repeat a handful of cost
	// expressions across thousands of structurally identical layers (a
	// 47k-node speech graph compiles to under a hundred unique node-cost
	// programs), so evaluation runs the unique programs and gathers per-node
	// values by index: node i's FLOPs are costProgs[nodeFLOPIx[i]], its
	// bytes costProgs[nodeByteIx[i]], and tensor i's size
	// tensorProgs[TensorIndex(i)], its size class, which the wiring's
	// per-tensor records hold.
	costProgs  []*symbolic.Program
	nodeFLOPIx []int32
	nodeByteIx []int32

	tensorProgs []*symbolic.Program

	wiring *wiring
}

// Compile derives and caches every node's cost expressions, then lowers all
// of them — plus per-tensor byte sizes and the graph totals — into programs
// sharing one symbol table, and flattens the wiring for the footprint
// simulator.
func Compile(g *Graph) *Compiled {
	// WarmCosts (synchronized, once per graph) has interned every node's
	// two costs by canonical string (canonical constructors make equal
	// strings mean equal trees); compile each distinct expression once and
	// share the graph's per-node indexes.
	costs, flopIx, byteIx := g.CostIndexes()
	// Tensors of one size number share one byte expression; distinct
	// numbers whose expressions render alike share one program. Classes
	// are numbered in order of first use.
	classOf := make([]int32, len(g.sizeBytes))
	for i := range classOf {
		classOf[i] = -1
	}
	tensorIndex := make(map[string]int32)
	var tensorExprs []symbolic.Expr
	tensorIx := make([]int32, len(g.tensors))
	for i, t := range g.tensors {
		if classOf[t.sizeID] < 0 {
			key := t.Bytes().String()
			ix, ok := tensorIndex[key]
			if !ok {
				ix = int32(len(tensorExprs))
				tensorIndex[key] = ix
				tensorExprs = append(tensorExprs, t.Bytes())
			}
			classOf[t.sizeID] = ix
		}
		tensorIx[i] = classOf[t.sizeID]
	}
	// The distinct expressions hold every symbol of the graph; SymTabFor
	// sorts the names, so the slots are as over every node and tensor.
	syms := symbolic.SymTabFor(slices.Concat(costs, tensorExprs)...)

	c := &Compiled{
		Graph:       g,
		Syms:        syms,
		costProgs:   symbolic.CompileAll(costs, syms),
		nodeFLOPIx:  flopIx,
		nodeByteIx:  byteIx,
		tensorProgs: symbolic.CompileAll(tensorExprs, syms),
	}
	c.wiring = g.flatten(tensorIx)
	c.ParamCount = symbolic.Compile(g.ParamCount(), syms)
	c.TotalFLOPs = symbolic.Compile(g.TotalFLOPs(), syms)
	c.TotalBytes = symbolic.Compile(g.TotalBytes(), syms)
	c.IO = symbolic.Compile(g.AlgorithmicIO(), syms)
	return c
}

// Compile returns the graph's precompiled analysis bundle.
func (g *Graph) Compile() *Compiled { return Compile(g) }

// NewSlots allocates a slot buffer sized for the bundle's symbol table.
// Each concurrently evaluating goroutine needs its own buffer.
func (c *Compiled) NewSlots() []float64 { return c.Syms.NewSlots() }

// Bind fills slots from env. Every graph symbol must be bound; extra env
// entries are ignored.
func (c *Compiled) Bind(slots []float64, env symbolic.Env) error {
	return c.Syms.Bind(slots, env)
}

// evalPrograms evaluates progs for one slot binding into dst (grown as
// needed and returned).
func evalPrograms(progs []*symbolic.Program, slots, dst []float64) []float64 {
	if cap(dst) < len(progs) {
		dst = make([]float64, len(progs))
	}
	dst = dst[:len(progs)]
	for i, p := range progs {
		dst[i] = p.Eval(slots)
	}
	return dst
}

// EvalStats computes the headline numeric quantities for one slot binding.
// Per-node FLOPs and bytes are accumulated in Nodes() order (the unique
// programs are evaluated once and gathered by index, which leaves every
// summand and the summation order unchanged).
func (c *Compiled) EvalStats(slots []float64) Stats {
	uniq := c.CostValues(slots, nil)
	s := Stats{Params: c.ParamCount.Eval(slots)}
	for i := range c.nodeFLOPIx {
		s.FLOPs += uniq[c.nodeFLOPIx[i]]
		s.Bytes += uniq[c.nodeByteIx[i]]
	}
	if s.Bytes > 0 {
		s.Intensity = s.FLOPs / s.Bytes
	}
	return s
}

// Footprint runs the schedule simulation for one slot binding, evaluating
// tensor sizes through the compiled programs. It allocates the simulation
// state per call; loops over many points evaluate them as a batch and
// simulate each row with FootprintFromBatch, which reuses it.
func (c *Compiled) Footprint(slots []float64, policy SchedulePolicy) (ScheduleResult, error) {
	var sim footprintSim
	return sim.run(c.wiring, c.TensorValues(slots, nil), policy)
}

// NodeCosts evaluates every node's FLOPs and bytes into the provided slices
// (grown as needed) and returns them, in Nodes() order.
func (c *Compiled) NodeCosts(slots []float64, flops, bytes []float64) (f, b []float64) {
	uniq := c.CostValues(slots, nil)
	n := len(c.nodeFLOPIx)
	if cap(flops) < n {
		flops = make([]float64, n)
	}
	if cap(bytes) < n {
		bytes = make([]float64, n)
	}
	flops, bytes = flops[:n], bytes[:n]
	for i := range c.nodeFLOPIx {
		flops[i] = uniq[c.nodeFLOPIx[i]]
		bytes[i] = uniq[c.nodeByteIx[i]]
	}
	return flops, bytes
}

// BindValues writes values for the named symbols into slots, for callers
// that sweep a few knobs without rebuilding an Env map per point. Symbols
// absent from the graph are ignored (a cost expression may not reference
// every knob).
func (c *Compiled) BindValues(slots []float64, names []string, values []float64) error {
	if len(names) != len(values) {
		return fmt.Errorf("graph: %d names but %d values", len(names), len(values))
	}
	for i, name := range names {
		if slot, ok := c.Syms.Slot(name); ok {
			slots[slot] = values[i]
		}
	}
	return nil
}
