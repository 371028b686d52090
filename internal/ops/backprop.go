package ops

import (
	"fmt"

	"catamount/internal/graph"
	"catamount/internal/symbolic"
)

// Backprop appends explicit backward ops to the builder's graph for the
// gradient of the scalar loss with respect to every reachable tensor, then
// attaches one SGD-with-momentum update per trainable parameter. The
// resulting graph is a complete training step: forward, backward, update.
//
// Gradient contributions to a tensor consumed by several ops are accumulated
// incrementally (chained adds) in reverse-topological arrival order, which
// mirrors framework behaviour and keeps the live set small.
func Backprop(b *Builder, loss *graph.Tensor, opt SGDMomentum) error {
	if loss.Shape.Rank() != 0 {
		return fmt.Errorf("ops: backprop loss must be scalar, got %s", loss.Shape)
	}
	g := b.G
	forward, err := g.TopoOrder()
	if err != nil {
		return err
	}

	grads := make(gradTable, len(g.Tensors()))
	accumulate := func(group string, t, partial *graph.Tensor) {
		if prev := grads.of(t); prev != nil {
			sum := g.NewTensor("d:"+t.Name+":acc", graph.Activation, t.DType, t.Shape)
			g.MustAddNode("bwd/acc:"+t.Name, group, GradAccum{},
				[]*graph.Tensor{prev, partial}, []*graph.Tensor{sum})
			grads[t.ID()] = sum
			return
		}
		grads[t.ID()] = partial
	}
	newGrad := func(t *graph.Tensor) *graph.Tensor {
		return g.NewTensor("d:"+t.Name, graph.Activation, t.DType, t.Shape)
	}

	// Seed: d(loss)/d(loss) = 1.
	seed := newGrad(loss)
	g.MustAddNode("bwd/seed", loss.Group, Fill{Value: 1}, nil, []*graph.Tensor{seed})
	grads[loss.ID()] = seed

	for i := len(forward) - 1; i >= 0; i-- {
		n := forward[i]
		if err := backwardNode(b, n, grads, accumulate, newGrad); err != nil {
			return err
		}
	}

	// Optimizer updates.
	for _, p := range g.Params() {
		gr := grads.of(p)
		if gr == nil {
			return fmt.Errorf("ops: parameter %q received no gradient", p.Name)
		}
		mom := g.NewTensor("mom:"+p.Name, graph.State, p.DType, p.Shape)
		mom.Group = p.Group
		g.MustAddNode("update:"+p.Name, p.Group, opt,
			[]*graph.Tensor{p, gr, mom}, nil)
	}
	return nil
}

// gradTable maps each forward tensor, by its ID, to its gradient so far.
// Backprop sizes it to the forward graph: only forward tensors are keys.
type gradTable []*graph.Tensor

// of returns t's gradient so far, nil if it has none.
func (gt gradTable) of(t *graph.Tensor) *graph.Tensor { return gt[t.ID()] }

// backwardNode emits the backward ops for one forward node.
func backwardNode(b *Builder, n *graph.Node, grads gradTable,
	accumulate func(string, *graph.Tensor, *graph.Tensor), newGrad func(*graph.Tensor) *graph.Tensor) error {

	g := b.G
	gr := n.Group

	// Gradient of the primary output (most ops have exactly one).
	var dY *graph.Tensor
	if len(n.Outputs) > 0 {
		dY = grads.of(n.Outputs[0])
	}

	switch op := n.Op.(type) {
	case MatMul:
		if dY == nil {
			return nil
		}
		if op.TransA {
			return fmt.Errorf("ops: backprop through transA matmul unsupported")
		}
		a, w := n.Inputs[0], n.Inputs[1]
		da := newGrad(a)
		g.MustAddNode("bwd/"+n.Name+":dA", gr, MatMul{TransA: false, TransB: !op.TransB},
			[]*graph.Tensor{dY, w}, []*graph.Tensor{da})
		accumulate(gr, a, da)
		dw := newGrad(w)
		if op.TransB {
			g.MustAddNode("bwd/"+n.Name+":dB", gr, MatMul{TransA: true, TransB: false},
				[]*graph.Tensor{dY, a}, []*graph.Tensor{dw})
		} else {
			g.MustAddNode("bwd/"+n.Name+":dB", gr, MatMul{TransA: true, TransB: false},
				[]*graph.Tensor{a, dY}, []*graph.Tensor{dw})
		}
		accumulate(gr, w, dw)

	case BatchedMatMul:
		if dY == nil {
			return nil
		}
		if op.TransA {
			return fmt.Errorf("ops: backprop through transA batched-matmul unsupported")
		}
		a, w := n.Inputs[0], n.Inputs[1]
		da := newGrad(a)
		g.MustAddNode("bwd/"+n.Name+":dA", gr, BatchedMatMul{TransA: false, TransB: !op.TransB},
			[]*graph.Tensor{dY, w}, []*graph.Tensor{da})
		accumulate(gr, a, da)
		dw := newGrad(w)
		if op.TransB {
			g.MustAddNode("bwd/"+n.Name+":dB", gr, BatchedMatMul{TransA: true, TransB: false},
				[]*graph.Tensor{dY, a}, []*graph.Tensor{dw})
		} else {
			g.MustAddNode("bwd/"+n.Name+":dB", gr, BatchedMatMul{TransA: true, TransB: false},
				[]*graph.Tensor{a, dY}, []*graph.Tensor{dw})
		}
		accumulate(gr, w, dw)

	case Binary:
		if dY == nil {
			return nil
		}
		a, c := n.Inputs[0], n.Inputs[1]
		switch op.Fn {
		case "add":
			accumulate(gr, a, dY)
			accumulate(gr, c, dY)
		case "sub":
			accumulate(gr, a, dY)
			neg := newGrad(c)
			g.MustAddNode("bwd/"+n.Name+":neg", gr, Unary{Fn: "scale", FlopsPerElem: 1, Factor: -1},
				[]*graph.Tensor{dY}, []*graph.Tensor{neg})
			accumulate(gr, c, neg)
		case "mul":
			da := newGrad(a)
			g.MustAddNode("bwd/"+n.Name+":dA", gr, Binary{Fn: "mul"},
				[]*graph.Tensor{dY, c}, []*graph.Tensor{da})
			accumulate(gr, a, da)
			dc := newGrad(c)
			g.MustAddNode("bwd/"+n.Name+":dB", gr, Binary{Fn: "mul"},
				[]*graph.Tensor{dY, a}, []*graph.Tensor{dc})
			accumulate(gr, c, dc)
		default:
			return fmt.Errorf("ops: no gradient for binary op %q", op.Fn)
		}

	case BiasAdd:
		if dY == nil {
			return nil
		}
		x, bias := n.Inputs[0], n.Inputs[1]
		accumulate(gr, x, dY)
		db := newGrad(bias)
		g.MustAddNode("bwd/"+n.Name+":dBias", gr, Reduce{KeepDims: 1},
			[]*graph.Tensor{dY}, []*graph.Tensor{db})
		accumulate(gr, bias, db)

	case Unary:
		if dY == nil {
			return nil
		}
		x := n.Inputs[0]
		y := n.Outputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr,
			UnaryGrad{Fn: op.Fn, FlopsPerElem: unaryGradCost(op.Fn), Factor: op.Factor},
			[]*graph.Tensor{y, dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Conv2D:
		if dY == nil {
			return nil
		}
		x, w := n.Inputs[0], n.Inputs[1]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name+":dX", gr, Conv2DGradInput{StrideH: op.StrideH, StrideW: op.StrideW},
			[]*graph.Tensor{w, dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)
		dw := newGrad(w)
		g.MustAddNode("bwd/"+n.Name+":dW", gr, Conv2DGradWeight{StrideH: op.StrideH, StrideW: op.StrideW},
			[]*graph.Tensor{x, dY}, []*graph.Tensor{dw})
		accumulate(gr, w, dw)

	case Embedding:
		if dY == nil {
			return nil
		}
		ids, table := n.Inputs[0], n.Inputs[1]
		dt := newGrad(table)
		g.MustAddNode("bwd/"+n.Name, gr, EmbeddingGrad{},
			[]*graph.Tensor{ids, dY}, []*graph.Tensor{dt})
		accumulate(gr, table, dt)

	case Softmax:
		if dY == nil {
			return nil
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, SoftmaxGrad{},
			[]*graph.Tensor{n.Outputs[0], dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case SoftmaxXent:
		// Outputs: (loss, probs). Gradient flows from loss to logits via the
		// saved probs; labels get no gradient.
		dLoss := grads.of(n.Outputs[0])
		if dLoss == nil {
			return nil
		}
		logits, labels := n.Inputs[0], n.Inputs[1]
		probs := n.Outputs[1]
		dl := newGrad(logits)
		g.MustAddNode("bwd/"+n.Name, gr, SoftmaxXentGrad{},
			[]*graph.Tensor{probs, labels, dLoss}, []*graph.Tensor{dl})
		accumulate(gr, logits, dl)

	case BatchNorm:
		if dY == nil {
			return nil
		}
		x, gamma, beta := n.Inputs[0], n.Inputs[1], n.Inputs[2]
		dx, dg, db := newGrad(x), newGrad(gamma), newGrad(beta)
		g.MustAddNode("bwd/"+n.Name, gr, BatchNormGrad{},
			[]*graph.Tensor{x, gamma, dY}, []*graph.Tensor{dx, dg, db})
		accumulate(gr, x, dx)
		accumulate(gr, gamma, dg)
		accumulate(gr, beta, db)

	case Pool:
		if dY == nil {
			return nil
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, PoolGrad{KH: op.KH, KW: op.KW, SH: op.SH, SW: op.SW, Max: op.Max},
			[]*graph.Tensor{x, dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Reduce:
		if dY == nil {
			return nil
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, Broadcast{ScaleFlops: op.Mean},
			[]*graph.Tensor{dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Concat:
		if dY == nil {
			return nil
		}
		// Split dY back into per-input grads (inputs may be unequal along
		// the axis, so the outputs take the input shapes directly).
		douts := make([]*graph.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			douts[i] = newGrad(in)
		}
		g.MustAddNode("bwd/"+n.Name, gr, Split{Axis: op.Axis, N: len(n.Inputs)},
			[]*graph.Tensor{dY}, douts)
		for i, in := range n.Inputs {
			accumulate(gr, in, douts[i])
		}

	case Split:
		// Concat the output grads; outputs with no gradient get zero fill.
		parts := make([]*graph.Tensor, len(n.Outputs))
		any := false
		for i, out := range n.Outputs {
			if gp := grads.of(out); gp != nil {
				parts[i] = gp
				any = true
			}
		}
		if !any {
			return nil
		}
		for i, out := range n.Outputs {
			if parts[i] == nil {
				z := newGrad(out)
				g.MustAddNode("bwd/"+n.Name+":zero", gr, Fill{}, nil, []*graph.Tensor{z})
				parts[i] = z
			}
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, Concat{Axis: op.Axis}, parts, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Transpose:
		if dY == nil {
			return nil
		}
		inv := make([]int, len(op.Perm))
		for i, p := range op.Perm {
			inv[p] = i
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, Transpose{Perm: inv},
			[]*graph.Tensor{dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Reshape:
		if dY == nil {
			return nil
		}
		x := n.Inputs[0]
		dx := newGrad(x)
		g.MustAddNode("bwd/"+n.Name, gr, Reshape{},
			[]*graph.Tensor{dY}, []*graph.Tensor{dx})
		accumulate(gr, x, dx)

	case Fill, SGDMomentum:
		// No gradient.

	default:
		return fmt.Errorf("ops: no gradient rule for op kind %q", n.Op.Kind())
	}
	return nil
}

// unaryGradCost returns the per-element FLOPs of a unary op's gradient.
func unaryGradCost(fn string) float64 {
	switch fn {
	case "relu", "scale":
		return 1
	case "sigmoid", "tanh":
		return 3 // f'(y) from saved activation plus the dY product
	}
	return 2
}

// ForwardBackwardFLOPs returns the symbolic FLOP totals of the forward and
// backward (including optimizer) node populations, for callers that compile
// the split once and evaluate it per sweep point. Each is folded over the
// graph's cost indexes (symbolic.SumOf), so it renders as symbolic.Add
// over its nodes' FLOPs in node order.
func ForwardBackwardFLOPs(g *graph.Graph) (fwd, bwd symbolic.Expr) {
	costs, flopIx, _ := g.CostIndexes() // seals the graph and syncs the cost fill
	var fwdIx, bwdIx []int32
	for i, n := range g.Nodes() {
		if isBackwardNode(n) {
			bwdIx = append(bwdIx, flopIx[i])
		} else {
			fwdIx = append(fwdIx, flopIx[i])
		}
	}
	return symbolic.SumOf(costs, fwdIx), symbolic.SumOf(costs, bwdIx)
}

// ForwardBackwardSplit evaluates FLOPs separately for forward and backward
// (including optimizer) node populations — used to validate the paper's
// ~2x-backward observation.
func ForwardBackwardSplit(g *graph.Graph, env map[string]float64) (fwd, bwd float64, err error) {
	fe, be := ForwardBackwardFLOPs(g)
	if fwd, err = fe.Eval(env); err != nil {
		return 0, 0, err
	}
	if bwd, err = be.Eval(env); err != nil {
		return 0, 0, err
	}
	return fwd, bwd, nil
}

func isBackwardNode(n *graph.Node) bool {
	if len(n.Name) >= 4 && n.Name[:4] == "bwd/" {
		return true
	}
	if len(n.Name) >= 7 && n.Name[:7] == "update:" {
		return true
	}
	return false
}
