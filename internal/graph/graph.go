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
	"encoding/binary"
	"fmt"
	"reflect"
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

	// id is the tensor's index in its graph. sizeID numbers its (element
	// size, dims) pair within the graph, so tensors of equal size share it
	// and the derivation memo can key node costs by operand sizes. Both
	// are int32 so a Tensor stays in its 144-byte allocation size class.
	id, sizeID int32

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
//
// FLOPs and Bytes must depend only on the op value and, in order, on the
// element size and dims of each input and output of n: never on names,
// groups, kinds or wiring beyond that. The graph relies on this while it
// is being built: nodes whose operands have equal sizes share one IOBytes
// expression, and nodes with equal op values and operand sizes share one
// FLOPs expression. An op value that cannot key a map (such as a struct
// holding a slice) has its FLOPs derived per node, uncached.
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

	g  *Graph
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
// unsynchronized fill meant for single-threaded graph construction, and
// shares the expression of an earlier node with an equal op value and
// equal operand sizes.
func (n *Node) FLOPs() symbolic.Expr {
	if n.flopsExpr == nil {
		if m := n.g.memo; m != nil {
			n.flopsExpr = m.flopsFor(n)
		} else {
			n.flopsExpr = n.Op.FLOPs(n)
		}
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
// written once. While the graph is being built it is memoized by the
// node's operand sizes; once WarmCosts has sealed the graph it derives
// afresh and writes nothing.
func IOBytes(n *Node) symbolic.Expr {
	m := n.g.memo
	if m == nil {
		return ioBytes(n)
	}
	sig := m.signature(n)
	if e := m.io[sig]; e != nil {
		return e
	}
	e := ioBytes(n)
	m.io[sig] = e
	return e
}

func ioBytes(n *Node) symbolic.Expr {
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

	// memo shares node cost derivations among nodes of equal operand
	// sizes. WarmCosts drops it when it seals the graph.
	memo *deriveMemo

	warmOnce sync.Once
	// sealed is set by WarmCosts: from then on the totals below and any
	// Compiled bundle describe the graph, so no node and no tensor other
	// than an Activation may be added to it.
	sealed bool

	paramCount, totalFLOPs, totalBytes, algIO symbolic.Expr
}

// tensorSize is the pair of size expressions tensors share, and its id.
type tensorSize struct {
	numel, bytes symbolic.Expr
	id           int32
}

// deriveMemo memoizes node cost derivation by operand sizes. An unrolled
// recurrent graph repeats the same few operand sizes step after step, so
// most of its nodes find their expressions here instead of rebuilding
// them. It is filled only where the node cost cache is: during
// single-threaded construction and inside WarmCosts.
type deriveMemo struct {
	// sigs numbers each distinct operand signature: the input count and
	// the ordered input and output size ids, as uvarints.
	sigs map[string]int32
	// io holds IOBytes by signature number, nil until derived.
	io    []symbolic.Expr
	flops map[flopsKey]symbolic.Expr
	buf   []byte
}

// flopsKey identifies a FLOPs derivation: the op value and the operand
// signature number.
type flopsKey struct {
	op  Op
	sig int32
}

func newDeriveMemo() *deriveMemo {
	return &deriveMemo{sigs: make(map[string]int32), flops: make(map[flopsKey]symbolic.Expr)}
}

// signature returns the number of n's operand signature, assigning the
// next one on first sight.
func (m *deriveMemo) signature(n *Node) int32 {
	b := binary.AppendUvarint(m.buf[:0], uint64(len(n.Inputs)))
	for _, t := range n.Inputs {
		b = binary.AppendUvarint(b, uint64(t.sizeID))
	}
	for _, t := range n.Outputs {
		b = binary.AppendUvarint(b, uint64(t.sizeID))
	}
	m.buf = b
	if sig, ok := m.sigs[string(b)]; ok {
		return sig
	}
	sig := int32(len(m.io))
	m.sigs[string(b)] = sig
	m.io = append(m.io, nil)
	return sig
}

// flopsFor returns n's FLOPs, derived once per op value and operand
// signature. An op value that cannot key a map is derived uncached.
func (m *deriveMemo) flopsFor(n *Node) symbolic.Expr {
	if !reflect.ValueOf(n.Op).Comparable() {
		return n.Op.FLOPs(n)
	}
	k := flopsKey{n.Op, m.signature(n)}
	e, ok := m.flops[k]
	if !ok {
		e = n.Op.FLOPs(n)
		m.flops[k] = e
	}
	return e
}

// WarmCosts derives every node's FLOP and byte expressions, interns them
// by canonical string so structurally equal costs share one expression,
// and builds the graph totals (ParamCount, TotalFLOPs, TotalBytes,
// AlgorithmicIO), exactly once per graph. All graph-level analysis entry
// points call it first, making their reads race-free even when several
// goroutines analyze the same graph concurrently.
//
// WarmCosts seals the graph: AddNode fails afterwards, and NewTensor panics
// for a Param, Input or State tensor, since any of them would leave the
// totals or a Compiled bundle stale. It drops the derivation memo, so a
// sealed graph retains none of it.
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
		g.memo = nil
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
		memo:     newDeriveMemo(),
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
		Name:   g.uniqueName(name),
		Kind:   kind,
		DType:  dt,
		Shape:  shape,
		id:     int32(len(g.tensors)),
		sizeID: size.id,
		numel:  size.numel,
		bytes:  size.bytes,
	}
	g.tensors = append(g.tensors, t)
	g.byName[t.Name] = t
	return t
}

// sizeFor returns the size expressions for dtype dt and shape, built on
// the first request for that element size and those dims and numbered in
// order of first request. The key joins the element size and each dim's
// canonical string with NUL separators.
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
	s := tensorSize{
		numel: numel,
		bytes: symbolic.Mul(numel, symbolic.C(float64(dt.Size()))),
		id:    int32(len(g.sizes)),
	}
	g.sizes[string(key)] = s
	return s
}

// AddNode creates a node wiring inputs to outputs. Every tensor must have
// been created by g's NewTensor, each output must not already have a
// producer, and the graph must not be sealed by WarmCosts.
func (g *Graph) AddNode(name, group string, op Op, inputs, outputs []*Tensor) (*Node, error) {
	if g.sealed {
		return nil, fmt.Errorf("graph: node %q added after WarmCosts sealed graph %q", name, g.Name)
	}
	for _, ts := range [2][]*Tensor{inputs, outputs} {
		for _, t := range ts {
			if int(t.id) >= len(g.tensors) || g.tensors[t.id] != t {
				return nil, fmt.Errorf("graph: node %q: tensor %q is not in graph %q", name, t.Name, g.Name)
			}
		}
	}
	n := &Node{
		Name:    name,
		Op:      op,
		Group:   group,
		Inputs:  inputs,
		Outputs: outputs,
		g:       g,
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
