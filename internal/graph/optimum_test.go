package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// downset is a set of node ids, one bit each: the nodes an order has run
// so far.
type downset [4]uint64

func (d *downset) add(i int)            { d[i>>6] |= 1 << (i & 63) }
func (d downset) has(i int) bool        { return d[i>>6]&(1<<(i&63)) != 0 }
func (d downset) within(s downset) bool { return d[0]&^s[0]|d[1]&^s[1]|d[2]&^s[2]|d[3]&^s[3] == 0 }

// exactOptimum returns the lowest transient peak over every topological
// order of g, where tensor i has bytes[i] bytes, under the simulator's
// rules: graph inputs start live; a step allocates its node's outputs,
// takes the peak, then frees each transient input whose consumers have
// all run; a tensor nobody consumes stays live. The live set after a
// downset depends only on the downset, so the best peak to reach one is a
// bottleneck shortest path. It is found a layer of equal-sized downsets
// at a time, keeping each downset's lowest peak over the orders that
// reach it and pruning any whose peak exceeds bound. ok is false when no
// order stays within bound; states counts the downsets expanded. Sizes
// must be integers, so that every sum is exact whatever its order.
func exactOptimum(g *Graph, bytes []float64, bound float64) (opt float64, states int, ok bool) {
	n := len(g.nodes)
	if n > len(downset{})*64 {
		panic(fmt.Sprintf("exactOptimum: %d nodes", n))
	}
	type transient struct {
		producer  int // -1 for a graph input
		consumers downset
		size      float64
	}
	var ts []transient
	for _, t := range g.tensors {
		if t.Persistent() {
			continue
		}
		tr := transient{producer: -1, size: bytes[t.id]}
		if t.Producer != nil {
			tr.producer = t.Producer.id
		}
		for _, c := range t.Consumers {
			tr.consumers.add(c.id)
		}
		ts = append(ts, tr)
	}
	preds := make([]downset, n)
	for _, nd := range g.nodes {
		for _, t := range nd.Inputs {
			if t.Producer != nil {
				preds[nd.id].add(t.Producer.id)
			}
		}
	}
	liveBytes := func(s downset) float64 {
		var cur float64
		for _, t := range ts {
			if (t.producer < 0 || s.has(t.producer)) && (t.consumers == downset{} || !t.consumers.within(s)) {
				cur += t.size
			}
		}
		return cur
	}
	var all downset
	for i := 0; i < n; i++ {
		all.add(i)
	}
	layer := map[downset]float64{{}: liveBytes(downset{})}
	if layer[downset{}] > bound {
		return 0, 0, false
	}
	for k := 0; k < n; k++ {
		next := make(map[downset]float64, len(layer))
		for s, peak := range layer {
			states++
			cur := liveBytes(s)
			for v, nd := range g.nodes {
				if s.has(v) || !preds[v].within(s) {
					continue
				}
				p := cur
				for _, t := range nd.Outputs {
					p += bytes[t.id]
				}
				p = max(p, peak)
				if p > bound {
					continue
				}
				to := s
				to.add(v)
				if old, seen := next[to]; !seen || p < old {
					next[to] = p
				}
			}
		}
		layer = next
	}
	opt, ok = layer[all]
	return opt, states, ok
}

// bruteOptimum returns the lowest transient peak over every topological
// order of g, each replayed by replayPeak.
func bruteOptimum(t *testing.T, g *Graph, bytes []float64) float64 {
	var persistent float64
	for _, tn := range g.tensors {
		if tn.Persistent() {
			persistent += bytes[tn.id]
		}
	}
	indeg := make([]int, len(g.nodes))
	for _, nd := range g.nodes {
		for _, tn := range nd.Inputs {
			if tn.Producer != nil {
				indeg[nd.id]++
			}
		}
	}
	done := make([]bool, len(g.nodes))
	order := make([]int32, 0, len(g.nodes))
	best := math.Inf(1)
	var walk func()
	walk = func() {
		if len(order) == len(g.nodes) {
			peak, err := replayPeak(g, bytes, order)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, peak-persistent)
			return
		}
		for _, nd := range g.nodes {
			if done[nd.id] || indeg[nd.id] > 0 {
				continue
			}
			done[nd.id] = true
			order = append(order, int32(nd.id))
			for _, tn := range nd.Outputs {
				for _, c := range tn.Consumers {
					indeg[c.id]--
				}
			}
			walk()
			for _, tn := range nd.Outputs {
				for _, c := range tn.Consumers {
					indeg[c.id]++
				}
			}
			order = order[:len(order)-1]
			done[nd.id] = false
		}
	}
	walk()
	return best
}

// smallDAG builds a random training-step-like graph of 1 to maxNodes nodes
// in the manner of randomDAG (inputs, persistent tensors, repeated inputs,
// outputs nobody consumes), but with integer sizes, zero among them.
func smallDAG(rng *rand.Rand, name string, maxNodes int) *Graph {
	g := New(name)
	size := func() tensor.Shape { return tensor.Of(float64([]int{0, 1, 2, 3, 5, 16, 250}[rng.Intn(7)])) }
	var avail []*Tensor
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		avail = append(avail, g.NewTensor(fmt.Sprintf("x%d", i), Input, tensor.F32, size()))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		avail = append(avail, g.NewTensor(fmt.Sprintf("w%d", i), Param, tensor.F32, size()))
	}
	for i, n := 0, 1+rng.Intn(maxNodes); i < n; i++ {
		ins := make([]*Tensor, 1+rng.Intn(3))
		for j := range ins {
			k := len(avail) - 1 - rng.Intn(min(len(avail), 4))
			if rng.Intn(3) == 0 {
				k = rng.Intn(len(avail))
			}
			ins[j] = avail[k]
		}
		outs := make([]*Tensor, 1+rng.Intn(2))
		for j := range outs {
			outs[j] = g.NewTensor(fmt.Sprintf("a%d_%d", i, j), Activation, tensor.F32, size())
		}
		g.MustAddNode(fmt.Sprintf("n%d", i), "", fakeOp{"f", 1}, ins, outs)
		avail = append(avail, outs...)
	}
	return g
}

// chainDAG builds a graph of n nodes with a single topological order: each
// node reads the previous node's first output, and may also read an
// earlier tensor, a graph input or a parameter, and write a second output
// that only a later node or nobody reads.
func chainDAG(rng *rand.Rand, name string, n int) *Graph {
	g := New(name)
	size := func() tensor.Shape { return tensor.Of(float64(rng.Intn(100))) }
	prev := g.NewTensor("x", Input, tensor.F32, size())
	earlier := []*Tensor{prev}
	for i := 0; i < n; i++ {
		ins := []*Tensor{prev}
		switch rng.Intn(4) {
		case 0:
			ins = append(ins, earlier[rng.Intn(len(earlier))])
		case 1:
			ins = append(ins, g.NewTensor(fmt.Sprintf("in%d", i), Input, tensor.F32, size()))
		case 2:
			ins = append(ins, g.NewTensor(fmt.Sprintf("w%d", i), Param, tensor.F32, size()))
		}
		outs := []*Tensor{g.NewTensor(fmt.Sprintf("a%d", i), Activation, tensor.F32, size())}
		if rng.Intn(3) == 0 {
			outs = append(outs, g.NewTensor(fmt.Sprintf("b%d", i), Activation, tensor.F32, size()))
		}
		g.MustAddNode(fmt.Sprintf("n%d", i), "", fakeOp{"f", 1}, ins, outs)
		prev = outs[0]
		earlier = append(earlier, outs...)
	}
	return g
}

// tensorBytes evaluates every tensor size of g under env.
func tensorBytes(g *Graph, env symbolic.Env) []float64 {
	bytes := make([]float64, len(g.tensors))
	for _, t := range g.tensors {
		bytes[t.id] = symbolic.MustEval(t.Bytes(), env)
	}
	return bytes
}

// TestExactOptimumMatchesBruteForce checks the oracle itself: on random
// DAGs of at most 7 nodes it equals the lowest replayed peak over every
// topological order, with no bound to prune by.
func TestExactOptimumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		g := smallDAG(rng, fmt.Sprintf("tiny%d", i), 7)
		bytes := tensorBytes(g, nil)
		opt, _, ok := exactOptimum(g, bytes, math.Inf(1))
		if want := bruteOptimum(t, g, bytes); !ok || opt != want {
			t.Fatalf("%s: optimum %v (ok %v), brute force %v", g.Name, opt, ok, want)
		}
	}
}

// TestFootprintAtLeastOptimumRandomDAGs: on random DAGs of at most 20
// nodes neither policy's transient peak is below the exact optimum. The
// search is bounded by the better policy's peak, so it finds no order at
// all if a policy reports a peak that its order does not reach.
func TestFootprintAtLeastOptimumRandomDAGs(t *testing.T) {
	graphs := 400
	if testing.Short() {
		graphs = 60
	}
	rng := rand.New(rand.NewSource(7))
	above := 0
	for i := 0; i < graphs; i++ {
		g := smallDAG(rng, fmt.Sprintf("dag%d", i), 20)
		greedy, fifo := footprints(t, g)
		bound := min(greedy.PeakTransientBytes, fifo.PeakTransientBytes)
		opt, _, ok := exactOptimum(g, tensorBytes(g, nil), bound)
		if !ok || greedy.PeakTransientBytes < opt || fifo.PeakTransientBytes < opt {
			t.Fatalf("%s: optimum %v (ok %v), mem-greedy %v, FIFO %v",
				g.Name, opt, ok, greedy.PeakTransientBytes, fifo.PeakTransientBytes)
		}
		if greedy.PeakTransientBytes > opt {
			above++
		}
	}
	t.Logf("mem-greedy above the optimum on %d of %d graphs", above, graphs)
}

// TestFootprintOptimalOnChains: a chain has one topological order, so both
// policies must read exactly the optimum; this also pins the oracle's
// accounting to the simulator's.
func TestFootprintOptimalOnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		g := chainDAG(rng, fmt.Sprintf("chain%d", i), 1+rng.Intn(60))
		greedy, fifo := footprints(t, g)
		opt, _, ok := exactOptimum(g, tensorBytes(g, nil), math.Inf(1))
		if !ok || greedy.PeakTransientBytes != opt || fifo.PeakTransientBytes != opt {
			t.Fatalf("%s: optimum %v (ok %v), mem-greedy %v, FIFO %v",
				g.Name, opt, ok, greedy.PeakTransientBytes, fifo.PeakTransientBytes)
		}
	}
}

// footprints simulates g under mem-greedy and FIFO.
func footprints(t *testing.T, g *Graph) (greedy, fifo ScheduleResult) {
	t.Helper()
	var err error
	if greedy, err = g.Footprint(nil, PolicyMemGreedy); err != nil {
		t.Fatal(err)
	}
	if fifo, err = g.Footprint(nil, PolicyFIFO); err != nil {
		t.Fatal(err)
	}
	return greedy, fifo
}
