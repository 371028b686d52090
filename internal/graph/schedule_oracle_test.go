package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// oracleFootprint is the pointer-walking footprint simulator the flat one
// replaced, kept as the reference it must reproduce bit for bit: it walks
// *Node/*Tensor wiring, asks Persistent() per edge, and keeps heap keys in
// a side table indexed by node id.
func oracleFootprint(g *Graph, bytes []float64, policy SchedulePolicy) (ScheduleResult, error) {
	var persistent float64
	for _, t := range g.tensors {
		if t.Persistent() {
			persistent += bytes[t.id]
		}
	}
	remaining := make([]int, len(g.tensors))
	for _, t := range g.tensors {
		remaining[t.id] = len(t.Consumers)
	}
	live := make([]bool, len(g.tensors))
	var cur float64
	for _, t := range g.tensors {
		if t.Kind == Input {
			live[t.id] = true
			cur += bytes[t.id]
		}
	}
	peakTransient := cur

	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, t := range n.Inputs {
			if t.Producer != nil {
				indeg[n.id]++
			}
		}
	}
	netDelta := func(n *Node) float64 {
		var d float64
		for _, t := range n.Outputs {
			if !t.Persistent() && !live[t.id] {
				d += bytes[t.id]
			}
		}
		for _, t := range n.Inputs {
			if !t.Persistent() && live[t.id] && remaining[t.id] == 1 {
				d -= bytes[t.id]
			}
		}
		return d
	}
	keyFor := func(n *Node) float64 {
		if policy == PolicyMemGreedy {
			return netDelta(n)
		}
		return float64(n.id)
	}

	ready := &oracleHeap{}
	ready.reset(len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n.id] == 0 {
			ready.push(n.id, keyFor(n))
		}
	}
	var order []int32
	for ready.len() > 0 {
		n := g.nodes[ready.pop()]
		order = append(order, int32(n.id))
		for _, t := range n.Outputs {
			if !t.Persistent() && !live[t.id] {
				live[t.id] = true
				cur += bytes[t.id]
			}
		}
		if cur > peakTransient {
			peakTransient = cur
		}
		for _, t := range n.Inputs {
			remaining[t.id]--
			if t.Persistent() || !live[t.id] {
				continue
			}
			switch remaining[t.id] {
			case 0:
				live[t.id] = false
				cur -= bytes[t.id]
			case 1:
				if policy != PolicyMemGreedy {
					break
				}
				for _, c := range t.Consumers {
					if ready.contains(c.id) {
						ready.decrease(c.id, ready.key(c.id)-bytes[t.id])
						break
					}
				}
			}
		}
		for _, out := range n.Outputs {
			for _, c := range out.Consumers {
				indeg[c.id]--
				if indeg[c.id] == 0 {
					ready.push(c.id, keyFor(c))
				}
			}
		}
	}
	if len(order) != len(g.nodes) {
		return ScheduleResult{}, fmt.Errorf("graph: cycle detected during scheduling")
	}
	return ScheduleResult{
		PeakBytes:          persistent + peakTransient,
		PersistentBytes:    persistent,
		PeakTransientBytes: peakTransient,
		Order:              order,
	}, nil
}

// oracleHeap is an indexed binary min-heap of node ids ordered by
// (key, id), with keys held by node id.
type oracleHeap struct {
	keys []float64
	pos  []int32
	arr  []int32
}

func (h *oracleHeap) reset(n int) {
	h.keys = make([]float64, n)
	h.pos = make([]int32, n)
	h.arr = make([]int32, 0, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *oracleHeap) len() int             { return len(h.arr) }
func (h *oracleHeap) contains(id int) bool { return h.pos[id] >= 0 }
func (h *oracleHeap) key(id int) float64   { return h.keys[id] }

func (h *oracleHeap) less(a, b int32) bool {
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	return a < b
}

func (h *oracleHeap) push(id int, key float64) {
	h.keys[id] = key
	h.pos[id] = int32(len(h.arr))
	h.arr = append(h.arr, int32(id))
	h.siftUp(len(h.arr) - 1)
}

func (h *oracleHeap) pop() int {
	top := h.arr[0]
	last := len(h.arr) - 1
	h.arr[0] = h.arr[last]
	h.pos[h.arr[0]] = 0
	h.arr = h.arr[:last]
	h.pos[top] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return int(top)
}

func (h *oracleHeap) decrease(id int, key float64) {
	h.keys[id] = key
	h.siftUp(int(h.pos[id]))
}

func (h *oracleHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.arr[i], h.arr[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *oracleHeap) siftDown(i int) {
	n := len(h.arr)
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < n && h.less(h.arr[left], h.arr[min]) {
			min = left
		}
		if right < n && h.less(h.arr[right], h.arr[min]) {
			min = right
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *oracleHeap) swap(i, j int) {
	h.arr[i], h.arr[j] = h.arr[j], h.arr[i]
	h.pos[h.arr[i]] = int32(i)
	h.pos[h.arr[j]] = int32(j)
}

// replayPeak re-executes order, a list of node ids, with plain
// bookkeeping, independent of any scheduling heap: graph inputs start
// live, outputs are allocated when produced, and a transient tensor is
// freed once its last consumer edge has run. It fails if order is not a
// topological order of every node.
func replayPeak(g *Graph, bytes []float64, order []int32) (float64, error) {
	if len(order) != len(g.nodes) {
		return 0, fmt.Errorf("order has %d of %d nodes", len(order), len(g.nodes))
	}
	done := make([]bool, len(g.nodes))
	remaining := make([]int, len(g.tensors))
	live := make([]bool, len(g.tensors))
	var persistent, cur float64
	for _, t := range g.tensors {
		remaining[t.id] = len(t.Consumers)
		switch {
		case t.Persistent():
			persistent += bytes[t.id]
		case t.Kind == Input:
			live[t.id] = true
			cur += bytes[t.id]
		}
	}
	peak := cur
	for _, id := range order {
		n := g.nodes[id]
		if done[n.id] {
			return 0, fmt.Errorf("node %s runs twice", n.Name)
		}
		for _, t := range n.Inputs {
			if t.Producer != nil && !done[t.Producer.id] {
				return 0, fmt.Errorf("node %s runs before the producer of %s", n.Name, t.Name)
			}
		}
		done[n.id] = true
		for _, t := range n.Outputs {
			live[t.id] = true
			cur += bytes[t.id]
		}
		if cur > peak {
			peak = cur
		}
		for _, t := range n.Inputs {
			remaining[t.id]--
			if remaining[t.id] == 0 && live[t.id] {
				live[t.id] = false
				cur -= bytes[t.id]
			}
		}
	}
	return persistent + peak, nil
}

// checkFootprint asserts that got, the flat simulator's result for g under
// bytes and policy, is bit-identical to the oracle in all three byte
// fields and in Order, and that replaying Order reproduces PeakBytes.
func checkFootprint(t *testing.T, g *Graph, bytes []float64, policy SchedulePolicy, got ScheduleResult) {
	t.Helper()
	want, err := oracleFootprint(g, bytes, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"PeakBytes", got.PeakBytes, want.PeakBytes},
		{"PersistentBytes", got.PersistentBytes, want.PersistentBytes},
		{"PeakTransientBytes", got.PeakTransientBytes, want.PeakTransientBytes},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s %v: %s = %v, oracle %v", g.Name, policy, f.name, f.got, f.want)
		}
	}
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s %v: order has %d nodes, oracle %d", g.Name, policy, len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s %v: order step %d is %s, oracle %s", g.Name, policy, i,
				g.nodes[got.Order[i]].Name, g.nodes[want.Order[i]].Name)
		}
	}
	peak, err := replayPeak(g, bytes, got.Order)
	if err != nil {
		t.Fatalf("%s %v: %v", g.Name, policy, err)
	}
	if math.Float64bits(peak) != math.Float64bits(got.PeakBytes) {
		t.Fatalf("%s %v: replayed peak %v != PeakBytes %v", g.Name, policy, peak, got.PeakBytes)
	}
}

// randomDAG builds a random training-step-like graph: several Input
// tensors, Param and State tensors consumed as persistent inputs, nodes
// that may read one tensor twice, outputs nobody consumes, and sizes drawn
// from a small tie-prone set (zero included) plus arbitrary fractions that
// make the summation order visible in the low bits.
func randomDAG(rng *rand.Rand, name string) *Graph {
	g := New(name)
	size := func() tensor.Shape {
		sizes := []float64{0, 1, 2, 3, 16, 250}
		if rng.Intn(4) == 0 {
			return tensor.Of(rng.Float64() * 1000)
		}
		return tensor.Of(sizes[rng.Intn(len(sizes))])
	}
	var avail []*Tensor
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		avail = append(avail, g.NewTensor(fmt.Sprintf("x%d", i), Input, tensor.F32, size()))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		avail = append(avail, g.NewTensor(fmt.Sprintf("w%d", i), Param, tensor.F32, size()))
	}
	for i, n := 0, rng.Intn(2); i < n; i++ {
		avail = append(avail, g.NewTensor(fmt.Sprintf("m%d", i), State, tensor.F32, size()))
	}
	for i, n := 0, 4+rng.Intn(40); i < n; i++ {
		ins := make([]*Tensor, 1+rng.Intn(3))
		for j := range ins {
			// Favor recent tensors so chains form, with occasional long
			// skips and repeated picks.
			k := len(avail) - 1 - rng.Intn(min(len(avail), 4))
			if rng.Intn(4) == 0 {
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

// TestFootprintMatchesOracleRandomDAGs checks the flat simulator against
// the pointer oracle and the replay on random graphs, through both the
// flatten-on-the-fly map-env path and the compiled path, under both
// policies: training-step-like DAGs (randomDAG), and wide DAGs full of key
// ties (wideTieDAG), where the pick between the newly ready slot and the
// heap top is decided by node id.
func TestFootprintMatchesOracleRandomDAGs(t *testing.T) {
	var fs FootprintScratch
	for _, gen := range []struct {
		name   string
		seed   int64
		graphs int
		build  func(*rand.Rand, string) *Graph
	}{
		{"dag", 1, 300, randomDAG},
		{"wide", 2, 200, wideTieDAG},
	} {
		rng := rand.New(rand.NewSource(gen.seed))
		for i := 0; i < gen.graphs; i++ {
			g := gen.build(rng, fmt.Sprintf("%s%d", gen.name, i))
			bytes := make([]float64, len(g.tensors))
			for _, tn := range g.tensors {
				bytes[tn.id] = symbolic.MustEval(tn.Bytes(), nil)
			}
			c := Compile(g)
			slots := c.NewSlots()
			for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
				got, err := g.Footprint(nil, policy)
				if err != nil {
					t.Fatal(err)
				}
				checkFootprint(t, g, bytes, policy, got)
				got, err = c.FootprintInto(slots, policy, &fs)
				if err != nil {
					t.Fatal(err)
				}
				checkFootprint(t, g, bytes, policy, got)
			}
		}
	}
}

// wideTieDAG builds a layered graph whose ready set is wide and full of
// equal keys: 2–6 layers of 8–48 nodes, each reading one or two tensors
// of earlier layers (mostly the previous one, so ready nodes share
// inputs), with every size drawn from {0, 1, 2}. Nodes are added in a
// random order after all tensors exist, so node ids carry no topological
// order: a node made ready by a step may sort before or after equal-keyed
// nodes already waiting, and the id alone decides between them.
func wideTieDAG(rng *rand.Rand, name string) *Graph {
	g := New(name)
	size := func() tensor.Shape { return tensor.Of(float64(rng.Intn(3))) }
	var layers [][]*Tensor
	var first []*Tensor
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		first = append(first, g.NewTensor(fmt.Sprintf("x%d", i), Input, tensor.F32, size()))
	}
	layers = append(layers, first)
	if rng.Intn(2) == 0 {
		layers[0] = append(layers[0], g.NewTensor("w", Param, tensor.F32, size()))
	}
	type spec struct {
		ins, outs []*Tensor
	}
	var nodes []spec
	for l, depth := 0, 2+rng.Intn(5); l < depth; l++ {
		prev := layers[len(layers)-1]
		var outs []*Tensor
		for i, width := 0, 8+rng.Intn(41); i < width; i++ {
			var s spec
			for j, k := 0, 1+rng.Intn(2); j < k; j++ {
				from := prev
				if rng.Intn(5) == 0 {
					from = layers[rng.Intn(len(layers))]
				}
				s.ins = append(s.ins, from[rng.Intn(len(from))])
			}
			for j, k := 0, 1+rng.Intn(2); j < k; j++ {
				s.outs = append(s.outs, g.NewTensor(fmt.Sprintf("a%d_%d_%d", l, i, j), Activation, tensor.F32, size()))
			}
			outs = append(outs, s.outs...)
			nodes = append(nodes, s)
		}
		layers = append(layers, outs)
	}
	for i, k := range rng.Perm(len(nodes)) {
		g.MustAddNode(fmt.Sprintf("n%d", i), "", fakeOp{"f", 1}, nodes[k].ins, nodes[k].outs)
	}
	return g
}

// TestInvalidSizeNamesFirstTensor binds sizes that are negative, NaN or
// infinite to random graphs whose tensors share a few symbolic sizes, and
// checks that both entry paths fail naming the first tensor in id order
// whose size is bad, as a scan of every tensor's size would: the compiled
// path scans only the distinct sizes before it looks for the tensor.
func TestInvalidSizeNamesFirstTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := []string{"a", "b", "c", "d", "e"}
	kinds := []TensorKind{Activation, Activation, Input, Param, State}
	bad := []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)}
	var fs FootprintScratch
	failing := 0
	for i := 0; i < 300; i++ {
		g := New(fmt.Sprintf("bad%d", i))
		var ts []*Tensor
		for j, n := 0, 2+rng.Intn(12); j < n; j++ {
			shape := tensor.Of(symbolic.S(syms[rng.Intn(len(syms))]))
			if rng.Intn(3) == 0 {
				shape = tensor.Of(float64(rng.Intn(4)), symbolic.S(syms[rng.Intn(len(syms))]))
			}
			ts = append(ts, g.NewTensor(fmt.Sprintf("t%d", j), kinds[rng.Intn(len(kinds))], tensor.F32, shape))
		}
		for j, t := range ts {
			if t.Kind == Activation && t.Producer == nil {
				g.MustAddNode(fmt.Sprintf("n%d", j), "", fakeOp{"f", 1}, []*Tensor{ts[rng.Intn(len(ts))]}, []*Tensor{t})
			}
		}
		env := map[string]float64{}
		for _, s := range syms {
			env[s] = float64(rng.Intn(8))
			if rng.Intn(3) == 0 {
				env[s] = bad[rng.Intn(len(bad))]
			}
		}
		want := ""
		for _, t := range g.tensors {
			if v := symbolic.MustEval(t.Bytes(), env); !(v >= 0 && v <= math.MaxFloat64) {
				want = fmt.Sprintf("graph: tensor %s: size %g bytes is negative or not finite", t.Name, v)
				failing++
				break
			}
		}
		c := Compile(g)
		slots := c.NewSlots()
		if err := c.Bind(slots, env); err != nil {
			t.Fatal(err)
		}
		for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
			_, err1 := g.Footprint(env, policy)
			_, err2 := c.FootprintInto(slots, policy, &fs)
			for _, err := range []error{err1, err2} {
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != want && !(want == "" && strings.Contains(got, "cycle")) {
					t.Fatalf("%s %v: error %q, want %q", g.Name, policy, got, want)
				}
			}
		}
	}
	if failing < 100 {
		t.Fatalf("only %d of 300 graphs had a bad size", failing)
	}
}
