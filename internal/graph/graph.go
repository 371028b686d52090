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
	"hash/maphash"
	"math"
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

	// g is the tensor's graph and id its index there. sizeID numbers its
	// (element size, dims) pair within the graph, so tensors of equal size
	// share it, their size expressions and the derivation memo's keys.
	// Both are int32, which keeps a Tensor at 120 bytes (see tensorSlabLen).
	g          *Graph
	id, sizeID int32
}

// NumElements returns the symbolic element count, derived once per
// distinct element size and dims in the graph.
func (t *Tensor) NumElements() symbolic.Expr { return t.g.numels[t.sizeID] }

// Bytes returns the symbolic byte size, derived once per distinct element
// size and dims in the graph.
func (t *Tensor) Bytes() symbolic.Expr { return t.g.sizeBytes[t.sizeID] }

// ID returns the tensor's position in its graph's Tensors().
func (t *Tensor) ID() int { return int(t.id) }

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
// is being built and sealed: nodes whose operands have equal sizes share
// one IOBytes expression, and nodes with equal op values and operand
// sizes share one FLOPs and one Bytes expression, derived once. An op
// value that cannot key a map (such as a struct holding a slice) has its
// costs derived per node, uncached.
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
}

// FLOPs returns the node's algorithmic FLOPs. Once Graph.WarmCosts has
// sealed the graph it is the graph's interned expression for the node
// (CostIndexes), and reads are race-free. Before, each call derives it
// through the graph's derivation memo, so a node with an op value and
// operand sizes equal to an earlier node's gets that node's expression;
// such calls write the memo and are meant for single-threaded graph
// construction.
func (n *Node) FLOPs() symbolic.Expr {
	if g := n.g; g.flopIx != nil {
		return g.costs[g.flopIx[n.id]]
	}
	return n.g.memo.flopsFor(n)
}

// Bytes returns the node's algorithmic bytes accessed, under the same
// rules as FLOPs.
func (n *Node) Bytes() symbolic.Expr {
	if g := n.g; g.byteIx != nil {
		return g.costs[g.byteIx[n.id]]
	}
	return n.Op.Bytes(n)
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
	names    nameIndex
	nameSeqs map[string]int

	// sizes numbers each distinct (element size, dims) pair of a tensor,
	// keyed as in sizeFor; numels and sizeBytes hold the size expressions
	// NewTensor shares, by that number. keyBuf is sizeFor's key buffer.
	sizes             map[string]int32
	numels, sizeBytes []symbolic.Expr
	keyBuf            []byte

	// memo shares node cost derivations among nodes of equal operand
	// sizes. WarmCosts drops it when it seals the graph.
	memo *deriveMemo

	// nodeSlab and tensorSlab hand out the graph's nodes and tensors.
	nodeSlab   slab[Node]
	tensorSlab slab[Tensor]

	warmOnce sync.Once
	// sealed is set by WarmCosts: from then on the totals below and any
	// Compiled bundle describe the graph, so no node and no tensor other
	// than an Activation may be added to it.
	sealed bool

	// costs holds each distinct node cost expression once, in order of
	// first appearance over the nodes' FLOPs and bytes in turn, and flopIx
	// and byteIx each node's two indexes into it. WarmCosts fills them,
	// and a Compiled bundle shares them.
	costs          []symbolic.Expr
	flopIx, byteIx []int32

	paramCount, totalFLOPs, totalBytes, algIO symbolic.Expr
}

// deriveMemo memoizes node cost derivation by operand sizes. An unrolled
// recurrent graph repeats the same few operand sizes step after step, so
// most of its nodes find their expressions here instead of rebuilding
// them. It is filled only during single-threaded construction and inside
// WarmCosts.
type deriveMemo struct {
	// sigs numbers each distinct operand signature: the input count and
	// the ordered input and output size ids, as uvarints.
	sigs map[string]int32
	// io holds IOBytes by signature number, nil until derived.
	io    []symbolic.Expr
	flops map[opKey]symbolic.Expr
	buf   []byte
}

// opKey identifies a node's cost derivation: the op value and the operand
// signature number.
type opKey struct {
	op  Op
	sig int32
}

func newDeriveMemo() *deriveMemo {
	return &deriveMemo{sigs: make(map[string]int32), flops: make(map[opKey]symbolic.Expr)}
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

// key returns n's op value and operand signature number, and false if
// the op value cannot key a map.
func (m *deriveMemo) key(n *Node) (opKey, bool) {
	if !reflect.ValueOf(n.Op).Comparable() {
		return opKey{}, false
	}
	return opKey{n.Op, m.signature(n)}, true
}

// flopsFor returns n's FLOPs, derived once per op value and operand
// signature. An op value that cannot key a map is derived uncached.
func (m *deriveMemo) flopsFor(n *Node) symbolic.Expr {
	k, ok := m.key(n)
	if !ok {
		return n.Op.FLOPs(n)
	}
	e, ok := m.flops[k]
	if !ok {
		e = n.Op.FLOPs(n)
		m.flops[k] = e
	}
	return e
}

// WarmCosts derives every node's FLOP and byte expressions, interns them
// by canonical string so structurally equal costs share one expression
// and one index (CostIndexes), and builds the graph totals (ParamCount,
// TotalFLOPs, TotalBytes, AlgorithmicIO), exactly once per graph. All
// graph-level analysis entry points call it first, making their reads
// race-free even when several goroutines analyze the same graph
// concurrently.
//
// The totals are folded over those indexes and the tensors' size numbers
// (symbolic.SumOf), so each distinct expression is split into terms once;
// they render exactly as symbolic.Add over every node's or tensor's
// expression in graph order would.
//
// WarmCosts seals the graph: AddNode fails afterwards, and NewTensor panics
// for a Param, Input or State tensor, since any of them would leave the
// totals or a Compiled bundle stale. It drops the derivation memo, so a
// sealed graph retains none of it.
func (g *Graph) WarmCosts() {
	g.warmOnce.Do(func() {
		g.sealed = true
		index := make(map[string]int32)
		intern := func(e symbolic.Expr) int32 {
			k := e.String()
			if ix, ok := index[k]; ok {
				return ix
			}
			ix := int32(len(g.costs))
			index[k] = ix
			g.costs = append(g.costs, e)
			return ix
		}
		// Nodes of one op value and operand signature have one FLOPs and
		// one bytes expression (the Op contract), so each such pair is
		// derived and interned once. The nodes read their costs through
		// flopIx and byteIx once these are set, so fill local slices first.
		type costPair struct{ flops, bytes int32 }
		pairs := make(map[opKey]costPair)
		flopIx := make([]int32, len(g.nodes))
		byteIx := make([]int32, len(g.nodes))
		for i, n := range g.nodes {
			k, ok := g.memo.key(n)
			p, seen := pairs[k]
			if !ok || !seen {
				p = costPair{intern(n.FLOPs()), intern(n.Bytes())}
				if ok {
					pairs[k] = p
				}
			}
			flopIx[i], byteIx[i] = p.flops, p.bytes
		}
		g.flopIx, g.byteIx = flopIx, byteIx
		g.memo = nil
		var params, io []int32
		for _, t := range g.tensors {
			switch t.Kind {
			case Param:
				params = append(params, t.sizeID)
			case Input:
				io = append(io, t.sizeID)
			}
		}
		g.paramCount = symbolic.SumOf(g.numels, params)
		g.totalFLOPs = symbolic.SumOf(g.costs, g.flopIx)
		g.totalBytes = symbolic.SumOf(g.costs, g.byteIx)
		g.algIO = symbolic.SumOf(g.sizeBytes, io)
	})
}

// CostIndexes returns the graph's distinct node cost expressions and, in
// Nodes() order, the index of each node's FLOPs and of its bytes into
// them. It calls WarmCosts first, so it seals the graph. Callers must not
// modify the slices.
func (g *Graph) CostIndexes() (costs []symbolic.Expr, flopIx, byteIx []int32) {
	g.WarmCosts()
	return g.costs, g.flopIx, g.byteIx
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:     name,
		names:    nameIndex{seed: maphash.MakeSeed()},
		nameSeqs: make(map[string]int),
		sizes:    make(map[string]int32),
		memo:     newDeriveMemo(),
	}
}

// uniqueName returns name, or name#k when name is taken, and the hash of
// the name it returns.
func (g *Graph) uniqueName(name string) (string, uint32) {
	id, h := g.names.lookup(name, g.tensors)
	if id < 0 {
		return name, h
	}
	for {
		g.nameSeqs[name]++
		cand := name + "#" + strconv.Itoa(g.nameSeqs[name])
		if id, h = g.names.lookup(cand, g.tensors); id < 0 {
			return cand, h
		}
	}
}

// NewTensor creates and registers a tensor and returns it.
//
// Naming: the tensor keeps name as given, the string itself and not a
// copy, unless the graph already holds a tensor of that name; then it is
// named name#k, where k counts up from 1 per name, past any name#k that
// is taken. Tensor names stay unique within a graph.
//
// Allocation: the Tensor comes from the graph's tensor slab, which
// allocates 1,024 at a time, and the graph's name index grows by one
// entry; a taken name also allocates its name#k string. The shape is
// kept, not copied. The NumElements and Bytes expressions are derived
// only on the first request for an (element size, dims) pair and shared
// by every later tensor of that size.
//
// Once WarmCosts has sealed the graph NewTensor panics for any kind but
// Activation: a late Param, Input or State tensor would change a total or
// the resident footprint.
func (g *Graph) NewTensor(name string, kind TensorKind, dt tensor.DType, shape tensor.Shape) *Tensor {
	if g.sealed && kind != Activation {
		panic(fmt.Errorf("graph: %s tensor %q added after WarmCosts sealed graph %q", kind, name, g.Name))
	}
	size := g.sizeFor(dt, shape)
	t := g.tensorSlab.next(tensorSlabLen)
	name, h := g.uniqueName(name)
	*t = Tensor{
		Name:   name,
		Kind:   kind,
		DType:  dt,
		Shape:  shape,
		g:      g,
		id:     int32(len(g.tensors)),
		sizeID: size,
	}
	g.tensors = append(g.tensors, t)
	g.names.add(h, t.id)
	return t
}

// sizeFor returns the number of dtype dt's element size and shape's dims,
// numbered in order of first request, deriving the size expressions on
// that first request. The key is the element size as a uvarint, then per
// dim either 'c' and the constant's eight IEEE 754 bytes, so constant dims
// are never formatted, or 's', the length of the dim's canonical string as
// a uvarint, and the string. Each dim's encoding is prefix-free, so the
// key is injective.
func (g *Graph) sizeFor(dt tensor.DType, shape tensor.Shape) int32 {
	key := binary.AppendUvarint(g.keyBuf[:0], uint64(dt.Size()))
	for _, d := range shape {
		if c, ok := symbolic.IsConst(d); ok {
			key = binary.LittleEndian.AppendUint64(append(key, 'c'), math.Float64bits(c))
			continue
		}
		s := d.String()
		key = binary.AppendUvarint(append(key, 's'), uint64(len(s)))
		key = append(key, s...)
	}
	g.keyBuf = key
	if id, ok := g.sizes[string(key)]; ok {
		return id
	}
	numel := shape.NumElements()
	id := int32(len(g.numels))
	g.numels = append(g.numels, numel)
	g.sizeBytes = append(g.sizeBytes, symbolic.Mul(numel, symbolic.C(float64(dt.Size()))))
	g.sizes[string(key)] = id
	return id
}

// AddNode creates a node wiring inputs to outputs. Every tensor must have
// been created by g's NewTensor, each output must not already have a
// producer, and the graph must not be sealed by WarmCosts. The node comes
// from the graph's node slab, which allocates 512 at a time; the graph
// keeps name and the two slices, not copies.
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
	n := g.nodeSlab.next(nodeSlabLen)
	*n = Node{
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
	if id, _ := g.names.lookup(name, g.tensors); id >= 0 {
		return g.tensors[id], true
	}
	return nil, false
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
	// order doubles as the queue: order[:head] is emitted, order[head:]
	// is ready, and each node enters it once.
	order := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n.id] == 0 {
			order = append(order, n)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, out := range order[head].Outputs {
			for _, c := range out.Consumers {
				indeg[c.id]--
				if indeg[c.id] == 0 {
					order = append(order, c)
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
