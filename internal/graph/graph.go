// Package graph implements the compute-graph IR at the heart of the
// Catamount-style analysis: nodes ("ops") connected by tensors, with
// per-op algorithmic FLOP and byte counts expressed symbolically, plus the
// traversal machinery that computes training-step memory footprints.
//
// The quantities follow the paper's definitions (§2.1):
//
//   - algorithmic FLOPs: arithmetic required by the op's mathematical
//     definition, excluding addressing/loop overhead;
//   - algorithmic bytes: tensor bytes an op must read and write;
//   - algorithmic memory footprint: the minimum, over topological
//     traversals, of the peak live-tensor bytes during a training step.
package graph

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// TensorKind classifies a tensor's lifetime within a training step.
type TensorKind int

// Tensor lifetimes.
const (
	// Activation tensors are produced and consumed within a step and can be
	// freed once every consumer has executed.
	Activation TensorKind = iota
	// Input tensors hold training data staged into the step (freeable after
	// their last consumer, like activations, but produced by no node).
	Input
	// Param tensors are trainable weights; they persist across steps.
	Param
	// State tensors are persistent optimizer state (e.g. momentum slots).
	State
)

func (k TensorKind) String() string {
	switch k {
	case Activation:
		return "activation"
	case Input:
		return "input"
	case Param:
		return "param"
	case State:
		return "state"
	}
	return "unknown"
}

// Tensor is a value flowing between ops.
type Tensor struct {
	Name string
	Kind TensorKind
	// DType and Shape are fixed at NewTensor, which derives the tensor's
	// size expressions from them; changing either afterwards leaves
	// NumElements and Bytes describing the old value.
	DType     tensor.DType
	Shape     tensor.Shape
	Group     string // logical layer for parallelism planning
	Producer  *Node
	Consumers []*Node

	id int

	// numel and bytes are the size expressions, shared by every tensor of
	// the graph with the same element size and dims.
	numel, bytes symbolic.Expr
}

// NumElements returns the symbolic element count, derived once at
// NewTensor.
func (t *Tensor) NumElements() symbolic.Expr { return t.numel }

// Bytes returns the symbolic byte size, derived once at NewTensor.
func (t *Tensor) Bytes() symbolic.Expr { return t.bytes }

// Persistent reports whether the tensor outlives the training step.
func (t *Tensor) Persistent() bool { return t.Kind == Param || t.Kind == State }

func (t *Tensor) String() string {
	return fmt.Sprintf("%s:%s%s", t.Name, t.DType, t.Shape)
}

// Op is a computational kernel attached to a node. Implementations live in
// the ops package; the graph package only needs the analytical quantities.
type Op interface {
	// Kind returns the op type name, e.g. "matmul".
	Kind() string
	// FLOPs returns the algorithmic FLOPs for one execution of node n.
	FLOPs(n *Node) symbolic.Expr
	// Bytes returns the algorithmic bytes accessed by one execution of n.
	Bytes(n *Node) symbolic.Expr
}

// Node is one op instance in the graph.
type Node struct {
	Name    string
	Op      Op
	Group   string
	Inputs  []*Tensor
	Outputs []*Tensor

	id int

	// flopsExpr / bytesExpr cache the op-derived cost expressions, which are
	// pure functions of the (immutable) wiring. Deriving them per query was
	// the dominant cost of repeated graph characterization.
	flopsExpr symbolic.Expr
	bytesExpr symbolic.Expr
}

// FLOPs returns the node's algorithmic FLOPs, derived from the op once and
// cached. Graph.WarmCosts fills every node's cache exactly once and seals
// the graph, so reads after it are race-free; a call before it is an
// unsynchronized fill meant for single-threaded graph construction.
func (n *Node) FLOPs() symbolic.Expr {
	if n.flopsExpr == nil {
		n.flopsExpr = n.Op.FLOPs(n)
	}
	return n.flopsExpr
}

// Bytes returns the node's algorithmic bytes accessed, derived once and
// cached under the same rules as FLOPs.
func (n *Node) Bytes() symbolic.Expr {
	if n.bytesExpr == nil {
		n.bytesExpr = n.Op.Bytes(n)
	}
	return n.bytesExpr
}

func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)", n.Name, n.Op.Kind())
}

// IOBytes is the default byte model: every input read once plus every output
// written once.
func IOBytes(n *Node) symbolic.Expr {
	parts := make([]symbolic.Expr, 0, len(n.Inputs)+len(n.Outputs))
	for _, t := range n.Inputs {
		parts = append(parts, t.Bytes())
	}
	for _, t := range n.Outputs {
		parts = append(parts, t.Bytes())
	}
	return symbolic.Add(parts...)
}

// Graph is a directed acyclic compute graph for one training step.
type Graph struct {
	Name string

	nodes    []*Node
	tensors  []*Tensor
	byName   map[string]*Tensor
	nameSeqs map[string]int

	// sizes maps a tensor's element size and dims, keyed as in sizeFor, to
	// the size expressions NewTensor shares; keyBuf is sizeFor's key buffer.
	sizes  map[string]tensorSize
	keyBuf []byte

	warmOnce sync.Once
	// sealed is set by WarmCosts: from then on the totals below and any
	// Compiled bundle describe the graph, so no node and no tensor other
	// than an Activation may be added to it.
	sealed bool

	paramCount, totalFLOPs, totalBytes, algIO symbolic.Expr
}

// tensorSize is the pair of size expressions tensors share.
type tensorSize struct{ numel, bytes symbolic.Expr }

// WarmCosts derives every node's FLOP and byte expressions, interns them
// by canonical string so structurally equal costs share one expression,
// and builds the graph totals (ParamCount, TotalFLOPs, TotalBytes,
// AlgorithmicIO), exactly once per graph. All graph-level analysis entry
// points call it first, making their reads race-free even when several
// goroutines analyze the same graph concurrently.
//
// WarmCosts seals the graph: AddNode fails afterwards, and NewTensor panics
// for a Param, Input or State tensor, since any of them would leave the
// totals or a Compiled bundle stale.
func (g *Graph) WarmCosts() {
	g.warmOnce.Do(func() {
		g.sealed = true
		costs := make(map[string]symbolic.Expr)
		intern := func(e symbolic.Expr) symbolic.Expr {
			k := e.String()
			if c, ok := costs[k]; ok {
				return c
			}
			costs[k] = e
			return e
		}
		flops := make([]symbolic.Expr, len(g.nodes))
		bytes := make([]symbolic.Expr, len(g.nodes))
		for i, n := range g.nodes {
			n.flopsExpr = intern(n.FLOPs())
			n.bytesExpr = intern(n.Bytes())
			flops[i], bytes[i] = n.flopsExpr, n.bytesExpr
		}
		var params, io []symbolic.Expr
		for _, t := range g.tensors {
			switch t.Kind {
			case Param:
				params = append(params, t.numel)
			case Input:
				io = append(io, t.bytes)
			}
		}
		g.paramCount = symbolic.Add(params...)
		g.totalFLOPs = symbolic.Add(flops...)
		g.totalBytes = symbolic.Add(bytes...)
		g.algIO = symbolic.Add(io...)
	})
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:     name,
		byName:   make(map[string]*Tensor),
		nameSeqs: make(map[string]int),
		sizes:    make(map[string]tensorSize),
	}
}

// uniqueName returns name, or name#k when name is taken.
func (g *Graph) uniqueName(name string) string {
	if _, ok := g.byName[name]; !ok {
		return name
	}
	for {
		g.nameSeqs[name]++
		cand := fmt.Sprintf("%s#%d", name, g.nameSeqs[name])
		if _, ok := g.byName[cand]; !ok {
			return cand
		}
	}
}

// NewTensor creates and registers a tensor. Duplicate names are uniquified.
// The tensor's NumElements and Bytes expressions are derived here, once per
// distinct (element size, dims) in the graph. Once WarmCosts has sealed
// the graph it panics for any kind but Activation: a late Param, Input or
// State tensor would change a total or the resident footprint.
func (g *Graph) NewTensor(name string, kind TensorKind, dt tensor.DType, shape tensor.Shape) *Tensor {
	if g.sealed && kind != Activation {
		panic(fmt.Errorf("graph: %s tensor %q added after WarmCosts sealed graph %q", kind, name, g.Name))
	}
	size := g.sizeFor(dt, shape)
	t := &Tensor{
		Name:  g.uniqueName(name),
		Kind:  kind,
		DType: dt,
		Shape: shape,
		id:    len(g.tensors),
		numel: size.numel,
		bytes: size.bytes,
	}
	g.tensors = append(g.tensors, t)
	g.byName[t.Name] = t
	return t
}

// sizeFor returns the size expressions for dtype dt and shape, built on
// the first request for that element size and those dims. The key joins
// the element size and each dim's canonical string with NUL separators.
func (g *Graph) sizeFor(dt tensor.DType, shape tensor.Shape) tensorSize {
	key := strconv.AppendInt(g.keyBuf[:0], int64(dt.Size()), 10)
	for _, d := range shape {
		key = append(key, 0)
		key = append(key, d.String()...)
	}
	g.keyBuf = key
	if s, ok := g.sizes[string(key)]; ok {
		return s
	}
	numel := shape.NumElements()
	s := tensorSize{numel: numel, bytes: symbolic.Mul(numel, symbolic.C(float64(dt.Size())))}
	g.sizes[string(key)] = s
	return s
}

// AddNode creates a node wiring inputs to outputs. Each output must not
// already have a producer, and the graph must not be sealed by WarmCosts.
func (g *Graph) AddNode(name, group string, op Op, inputs, outputs []*Tensor) (*Node, error) {
	if g.sealed {
		return nil, fmt.Errorf("graph: node %q added after WarmCosts sealed graph %q", name, g.Name)
	}
	n := &Node{
		Name:    name,
		Op:      op,
		Group:   group,
		Inputs:  inputs,
		Outputs: outputs,
		id:      len(g.nodes),
	}
	for _, t := range outputs {
		if t.Producer != nil {
			return nil, fmt.Errorf("graph: tensor %q already produced by %q", t.Name, t.Producer.Name)
		}
		if t.Kind == Input || t.Kind == Param || t.Kind == State {
			return nil, fmt.Errorf("graph: node %q cannot produce persistent/input tensor %q", name, t.Name)
		}
		t.Producer = n
		if t.Group == "" {
			t.Group = group
		}
	}
	for _, t := range inputs {
		t.Consumers = append(t.Consumers, n)
		if t.Group == "" {
			t.Group = group
		}
	}
	g.nodes = append(g.nodes, n)
	return n, nil
}

// MustAddNode is AddNode that panics on wiring errors; model builders use it
// because wiring errors there are programming bugs, not runtime conditions.
func (g *Graph) MustAddNode(name, group string, op Op, inputs, outputs []*Tensor) *Node {
	n, err := g.AddNode(name, group, op, inputs, outputs)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns the node list in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Tensors returns all tensors in creation order.
func (g *Graph) Tensors() []*Tensor { return g.tensors }

// TensorByName looks up a tensor by exact name.
func (g *Graph) TensorByName(name string) (*Tensor, bool) {
	t, ok := g.byName[name]
	return t, ok
}

// Params returns all trainable parameter tensors.
func (g *Graph) Params() []*Tensor {
	var out []*Tensor
	for _, t := range g.tensors {
		if t.Kind == Param {
			out = append(out, t)
		}
	}
	return out
}

// The four totals below are built once, by WarmCosts, which each of them
// calls first; calling one seals the graph.

// ParamCount returns the symbolic total number of trainable parameters.
func (g *Graph) ParamCount() symbolic.Expr {
	g.WarmCosts()
	return g.paramCount
}

// AlgorithmicIO returns the training-data bytes staged into one step — the
// total size of Input tensors (paper §2.1: algorithmic IO is proportional to
// batch size but fixed as model size grows).
func (g *Graph) AlgorithmicIO() symbolic.Expr {
	g.WarmCosts()
	return g.algIO
}

// TotalFLOPs returns the symbolic algorithmic FLOPs for one traversal of the
// whole graph (one training step if the graph includes backward ops).
func (g *Graph) TotalFLOPs() symbolic.Expr {
	g.WarmCosts()
	return g.totalFLOPs
}

// TotalBytes returns the symbolic algorithmic bytes accessed by one
// traversal of the whole graph.
func (g *Graph) TotalBytes() symbolic.Expr {
	g.WarmCosts()
	return g.totalBytes
}

// GroupFLOPs returns per-group symbolic FLOPs totals.
func (g *Graph) GroupFLOPs() map[string]symbolic.Expr {
	g.WarmCosts()
	acc := make(map[string][]symbolic.Expr)
	for _, n := range g.nodes {
		acc[n.Group] = append(acc[n.Group], n.FLOPs())
	}
	out := make(map[string]symbolic.Expr, len(acc))
	for k, v := range acc {
		out[k] = symbolic.Add(v...)
	}
	return out
}

// GroupParamBytes returns per-group parameter bytes.
func (g *Graph) GroupParamBytes() map[string]symbolic.Expr {
	acc := make(map[string][]symbolic.Expr)
	for _, t := range g.tensors {
		if t.Kind == Param {
			acc[t.Group] = append(acc[t.Group], t.Bytes())
		}
	}
	out := make(map[string]symbolic.Expr, len(acc))
	for k, v := range acc {
		out[k] = symbolic.Add(v...)
	}
	return out
}

// Groups returns the sorted list of distinct node groups.
func (g *Graph) Groups() []string {
	set := make(map[string]bool)
	for _, n := range g.nodes {
		set[n.Group] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural invariants: every activation has a producer,
// every node input exists, and the graph is acyclic.
func (g *Graph) Validate() error {
	for _, t := range g.tensors {
		if t.Kind == Activation && t.Producer == nil {
			return fmt.Errorf("graph: activation tensor %q has no producer", t.Name)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological ordering of the nodes (Kahn's algorithm,
// insertion-order tie-breaking) or an error if the graph has a cycle.
func (g *Graph) TopoOrder() ([]*Node, error) {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, t := range n.Inputs {
			if t.Producer != nil {
				indeg[n.id]++
			}
		}
	}
	queue := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n.id] == 0 {
			queue = append(queue, n)
		}
	}
	order := make([]*Node, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, out := range n.Outputs {
			for _, c := range out.Consumers {
				indeg[c.id]--
				if indeg[c.id] == 0 {
					queue = append(queue, c)
				}
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), len(g.nodes))
	}
	return order, nil
}

// Stats evaluates the headline numeric quantities under env.
type Stats struct {
	Params    float64 // trainable parameter count
	FLOPs     float64 // algorithmic FLOPs per step
	Bytes     float64 // algorithmic bytes accessed per step
	Intensity float64 // FLOPs / byte
}

// EvalStats computes numeric totals under env.
func (g *Graph) EvalStats(env symbolic.Env) (Stats, error) {
	g.WarmCosts()
	p, err := g.ParamCount().Eval(env)
	if err != nil {
		return Stats{}, err
	}
	var flops, bytes float64
	for _, n := range g.nodes {
		f, err := n.FLOPs().Eval(env)
		if err != nil {
			return Stats{}, fmt.Errorf("node %s: %w", n.Name, err)
		}
		b, err := n.Bytes().Eval(env)
		if err != nil {
			return Stats{}, fmt.Errorf("node %s: %w", n.Name, err)
		}
		flops += f
		bytes += b
	}
	s := Stats{Params: p, FLOPs: flops, Bytes: bytes}
	if bytes > 0 {
		s.Intensity = flops / bytes
	}
	return s, nil
}
