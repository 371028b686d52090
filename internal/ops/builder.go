package ops

import (
	"fmt"
	"strconv"

	"catamount/internal/graph"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// Builder constructs compute graphs with shape inference over symbolic
// dimensions. Shape violations panic: builders run at model-definition time,
// where a bad wiring is a programming error.
//
// Naming: an op method names its output tensors and then its node, each
// from the next sequence number: the node group/kind_seq and each output
// group/kind_seq:out, where group is the current Group and seq counts
// every name made so far, from 1 (Split's outputs use kind split0, split1,
// ...). Input, Param and Zeros keep the caller's tensor name. Names reach
// the graph unchanged, except that NewTensor suffixes a taken tensor name
// with #k.
//
// Allocation: names are written with strconv into one buffer the builder
// reuses, so each name costs one allocation, its string.
type Builder struct {
	// G is the graph under construction.
	G *graph.Graph
	// DType is the element type used for new tensors (default F32).
	DType tensor.DType

	group string
	seq   int
	name  []byte // buffer for the next name
}

// NewBuilder creates a builder for a new empty graph.
func NewBuilder(name string) *Builder {
	return &Builder{G: graph.New(name), DType: tensor.F32}
}

// Group sets the logical layer label attached to subsequently created nodes
// and parameters (used by layer-parallelism planning).
func (b *Builder) Group(name string) { b.group = name }

// nextName writes the next name, group/kind_seq, into the name buffer and
// returns the buffer.
func (b *Builder) nextName(kind string) []byte {
	b.seq++
	buf := append(b.name[:0], b.group...)
	buf = append(append(append(buf, '/'), kind...), '_')
	b.name = strconv.AppendInt(buf, int64(b.seq), 10)
	return b.name
}

// outName returns the next name with ":out" appended: an output tensor's.
func (b *Builder) outName(kind string) string {
	b.name = append(b.nextName(kind), ":out"...)
	return string(b.name)
}

func (b *Builder) act(kind string, shape tensor.Shape) *graph.Tensor {
	return b.G.NewTensor(b.outName(kind), graph.Activation, b.DType, shape)
}

// actLike creates an activation preserving the dtype of an existing tensor
// (shape ops such as split/concat/reshape/transpose must not change dtype).
func (b *Builder) actLike(kind string, shape tensor.Shape, like *graph.Tensor) *graph.Tensor {
	return b.G.NewTensor(b.outName(kind), graph.Activation, like.DType, shape)
}

func (b *Builder) add(kind string, op graph.Op, in []*graph.Tensor, out []*graph.Tensor) *graph.Node {
	return b.G.MustAddNode(string(b.nextName(kind)), b.group, op, in, out)
}

// Input declares a training-data input tensor.
func (b *Builder) Input(name string, dt tensor.DType, dims ...any) *graph.Tensor {
	return b.G.NewTensor(name, graph.Input, dt, tensor.Of(dims...))
}

// Param declares a trainable weight tensor in the current group.
func (b *Builder) Param(name string, dims ...any) *graph.Tensor {
	t := b.G.NewTensor(name, graph.Param, b.DType, tensor.Of(dims...))
	t.Group = b.group
	return t
}

// Zeros produces a zero-initialized activation via a Fill node — used for
// initial recurrent states, which are computed on-device rather than staged
// in as training data (and so do not count toward algorithmic IO).
func (b *Builder) Zeros(name string, dims ...any) *graph.Tensor {
	t := b.G.NewTensor(name, graph.Activation, b.DType, tensor.Of(dims...))
	b.add("zeros", Fill{}, nil, []*graph.Tensor{t})
	return t
}

func shapePanic(format string, args ...any) {
	panic(fmt.Errorf("%w: %s", errShape, fmt.Sprintf(format, args...)))
}

func requireRank(t *graph.Tensor, rank int, ctx string) {
	if t.Shape.Rank() != rank {
		shapePanic("%s: want rank %d, got %s", ctx, rank, t.Shape)
	}
}

func requireEqualDim(a, bdim symbolic.Expr, ctx string) {
	if !symbolic.Equal(a, bdim) {
		shapePanic("%s: dimensions %v and %v differ", ctx, a, bdim)
	}
}

// MatMul multiplies x[m,k] by w[k,n], returning y[m,n].
func (b *Builder) MatMul(x, w *graph.Tensor) *graph.Tensor {
	requireRank(x, 2, "matmul lhs")
	requireRank(w, 2, "matmul rhs")
	requireEqualDim(x.Shape.Dim(1), w.Shape.Dim(0), "matmul inner")
	y := b.act("matmul", tensor.Of(x.Shape.Dim(0), w.Shape.Dim(1)))
	b.add("matmul", MatMul{}, []*graph.Tensor{x, w}, []*graph.Tensor{y})
	return y
}

// BatchedMatMul multiplies x[b,m,k] by w[b,k,n] (with optional transposes on
// the trailing two axes), returning y[b,m,n].
func (b *Builder) BatchedMatMul(x, w *graph.Tensor, transA, transB bool) *graph.Tensor {
	requireRank(x, 3, "batched-matmul lhs")
	requireRank(w, 3, "batched-matmul rhs")
	mIdx, kaIdx := 1, 2
	if transA {
		mIdx, kaIdx = 2, 1
	}
	kbIdx, nIdx := 1, 2
	if transB {
		kbIdx, nIdx = 2, 1
	}
	requireEqualDim(x.Shape.Dim(0), w.Shape.Dim(0), "batched-matmul batch")
	requireEqualDim(x.Shape.Dim(kaIdx), w.Shape.Dim(kbIdx), "batched-matmul inner")
	y := b.act("batched-matmul", tensor.Of(x.Shape.Dim(0), x.Shape.Dim(mIdx), w.Shape.Dim(nIdx)))
	b.add("batched-matmul", BatchedMatMul{TransA: transA, TransB: transB},
		[]*graph.Tensor{x, w}, []*graph.Tensor{y})
	return y
}

// Add returns x + y elementwise (same shapes).
func (b *Builder) Add(x, y *graph.Tensor) *graph.Tensor { return b.binary("add", x, y) }

// Mul returns x ⊙ y elementwise (same shapes).
func (b *Builder) Mul(x, y *graph.Tensor) *graph.Tensor { return b.binary("mul", x, y) }

// Sub returns x − y elementwise (same shapes).
func (b *Builder) Sub(x, y *graph.Tensor) *graph.Tensor { return b.binary("sub", x, y) }

func (b *Builder) binary(fn string, x, y *graph.Tensor) *graph.Tensor {
	if !x.Shape.Equal(y.Shape) {
		shapePanic("%s: shapes %s and %s differ", fn, x.Shape, y.Shape)
	}
	out := b.act(fn, x.Shape)
	b.add(fn, Binary{Fn: fn}, []*graph.Tensor{x, y}, []*graph.Tensor{out})
	return out
}

// BiasAdd adds a rank-1 bias along the last axis of x.
func (b *Builder) BiasAdd(x, bias *graph.Tensor) *graph.Tensor {
	requireRank(bias, 1, "bias")
	requireEqualDim(x.Shape.Dim(-1), bias.Shape.Dim(0), "bias-add last dim")
	out := b.act("bias-add", x.Shape)
	b.add("bias-add", BiasAdd{}, []*graph.Tensor{x, bias}, []*graph.Tensor{out})
	return out
}

// Unary applies a predefined unary op.
func (b *Builder) Unary(op Unary, x *graph.Tensor) *graph.Tensor {
	out := b.act(op.Fn, x.Shape)
	b.add(op.Fn, op, []*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// Sigmoid applies the logistic function.
func (b *Builder) Sigmoid(x *graph.Tensor) *graph.Tensor { return b.Unary(SigmoidOp, x) }

// Tanh applies the hyperbolic tangent.
func (b *Builder) Tanh(x *graph.Tensor) *graph.Tensor { return b.Unary(TanhOp, x) }

// ReLU applies the rectified linear unit.
func (b *Builder) ReLU(x *graph.Tensor) *graph.Tensor { return b.Unary(ReLUOp, x) }

// Embedding gathers rows of table[v,h] by integer ids, returning
// ids.Shape + [h].
func (b *Builder) Embedding(table, ids *graph.Tensor) *graph.Tensor {
	requireRank(table, 2, "embedding table")
	dims := make([]any, 0, ids.Shape.Rank()+1)
	for _, d := range ids.Shape {
		dims = append(dims, d)
	}
	dims = append(dims, table.Shape.Dim(1))
	out := b.act("embedding", tensor.Of(dims...))
	b.add("embedding", Embedding{}, []*graph.Tensor{ids, table}, []*graph.Tensor{out})
	return out
}

// Concat joins tensors along axis; all other dims must match.
func (b *Builder) Concat(axis int, xs ...*graph.Tensor) *graph.Tensor {
	if len(xs) == 0 {
		shapePanic("concat: no inputs")
	}
	rank := xs[0].Shape.Rank()
	axisParts := make([]symbolic.Expr, 0, len(xs))
	for _, x := range xs {
		requireRank(x, rank, "concat")
		for d := 0; d < rank; d++ {
			if d == axis {
				continue
			}
			requireEqualDim(xs[0].Shape.Dim(d), x.Shape.Dim(d), "concat non-axis dim")
		}
		axisParts = append(axisParts, x.Shape.Dim(axis))
	}
	outShape := make(tensor.Shape, rank)
	copy(outShape, xs[0].Shape)
	outShape[axis] = symbolic.Add(axisParts...)
	out := b.actLike("concat", outShape, xs[0])
	b.add("concat", Concat{Axis: axis}, xs, []*graph.Tensor{out})
	return out
}

// Split divides x into n equal parts along axis.
func (b *Builder) Split(x *graph.Tensor, axis, n int) []*graph.Tensor {
	partDim := symbolic.Div(x.Shape.Dim(axis), symbolic.C(float64(n)))
	if c, ok := symbolic.IsConst(x.Shape.Dim(axis)); ok {
		if int(c)%n != 0 {
			shapePanic("split: axis dim %v not divisible by %d", c, n)
		}
	}
	outShape := make(tensor.Shape, x.Shape.Rank())
	copy(outShape, x.Shape)
	outShape[axis] = partDim
	outs := make([]*graph.Tensor, n)
	for i := range outs {
		outs[i] = b.actLike("split"+strconv.Itoa(i), outShape, x)
	}
	b.add("split", Split{Axis: axis, N: n}, []*graph.Tensor{x}, outs)
	return outs
}

// Conv2D convolves x[n,H,W,c] with w[r,s,c,k] using same-padding and the
// given strides. Spatial dims must be concrete.
func (b *Builder) Conv2D(x, w *graph.Tensor, strideH, strideW int) *graph.Tensor {
	requireRank(x, 4, "conv input")
	requireRank(w, 4, "conv weight")
	requireEqualDim(x.Shape.Dim(3), w.Shape.Dim(2), "conv channels")
	h := constDim(x.Shape.Dim(1), "conv H")
	wd := constDim(x.Shape.Dim(2), "conv W")
	outH := (h + strideH - 1) / strideH
	outW := (wd + strideW - 1) / strideW
	out := b.act("conv2d", tensor.Of(x.Shape.Dim(0), outH, outW, w.Shape.Dim(3)))
	b.add("conv2d", Conv2D{StrideH: strideH, StrideW: strideW},
		[]*graph.Tensor{x, w}, []*graph.Tensor{out})
	return out
}

// Pool applies max/avg pooling over x[n,H,W,c].
func (b *Builder) Pool(x *graph.Tensor, kh, kw, sh, sw int, max bool) *graph.Tensor {
	requireRank(x, 4, "pool input")
	h := constDim(x.Shape.Dim(1), "pool H")
	w := constDim(x.Shape.Dim(2), "pool W")
	out := b.act("pool", tensor.Of(x.Shape.Dim(0), (h+sh-1)/sh, (w+sw-1)/sw, x.Shape.Dim(3)))
	b.add("pool", Pool{KH: kh, KW: kw, SH: sh, SW: sw, Max: max},
		[]*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// Pool1D pools along the time axis of x[batch, time, feat] — the pyramidal
// encoder reduction used by the speech model. Implemented as an avg pool
// with kernel=stride=factor.
func (b *Builder) Pool1D(x *graph.Tensor, factor int) *graph.Tensor {
	requireRank(x, 3, "pool1d input")
	tDim := constDim(x.Shape.Dim(1), "pool1d time")
	out := b.act("pool1d", tensor.Of(x.Shape.Dim(0), (tDim+factor-1)/factor, x.Shape.Dim(2)))
	b.add("pool1d", Pool{KH: factor, KW: 1, SH: factor, SW: 1, Max: false},
		[]*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// BatchNormLayer normalizes x per channel with fresh gamma/beta parameters.
func (b *Builder) BatchNormLayer(name string, x *graph.Tensor) *graph.Tensor {
	c := x.Shape.Dim(-1)
	gamma := b.Param(name+"/gamma", c)
	beta := b.Param(name+"/beta", c)
	out := b.act("batchnorm", x.Shape)
	b.add("batchnorm", BatchNorm{}, []*graph.Tensor{x, gamma, beta}, []*graph.Tensor{out})
	return out
}

// Softmax normalizes the last axis of x.
func (b *Builder) Softmax(x *graph.Tensor) *graph.Tensor {
	out := b.act("softmax", x.Shape)
	b.add("softmax", Softmax{}, []*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// SoftmaxXentLoss computes fused softmax cross-entropy between logits [m,n]
// and integer labels [m]. Returns the scalar loss.
func (b *Builder) SoftmaxXentLoss(logits, labels *graph.Tensor) *graph.Tensor {
	requireRank(logits, 2, "xent logits")
	requireRank(labels, 1, "xent labels")
	requireEqualDim(logits.Shape.Dim(0), labels.Shape.Dim(0), "xent rows")
	loss := b.act("loss", tensor.Of())
	probs := b.act("probs", logits.Shape)
	b.add("softmax-xent", SoftmaxXent{}, []*graph.Tensor{logits, labels},
		[]*graph.Tensor{loss, probs})
	return loss
}

// ReduceSum sums over leading axes, keeping the trailing keepDims axes.
func (b *Builder) ReduceSum(x *graph.Tensor, keepDims int) *graph.Tensor {
	return b.reduce(x, keepDims, false)
}

// ReduceMean averages over leading axes, keeping the trailing keepDims axes.
func (b *Builder) ReduceMean(x *graph.Tensor, keepDims int) *graph.Tensor {
	return b.reduce(x, keepDims, true)
}

func (b *Builder) reduce(x *graph.Tensor, keepDims int, mean bool) *graph.Tensor {
	if keepDims >= x.Shape.Rank() {
		shapePanic("reduce: keepDims %d >= rank %d", keepDims, x.Shape.Rank())
	}
	outShape := make(tensor.Shape, keepDims)
	copy(outShape, x.Shape[x.Shape.Rank()-keepDims:])
	out := b.act("reduce", outShape)
	b.add("reduce", Reduce{KeepDims: keepDims, Mean: mean},
		[]*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// Reshape reinterprets x with a new shape of identical element count.
func (b *Builder) Reshape(x *graph.Tensor, dims ...any) *graph.Tensor {
	// The tensors' element counts are derived once per size, so compare
	// those rather than building two products per reshape.
	out := b.actLike("reshape", tensor.Of(dims...), x)
	if !symbolic.Equal(x.NumElements(), out.NumElements()) {
		shapePanic("reshape: element count %v != %v", x.NumElements(), out.NumElements())
	}
	b.add("reshape", Reshape{}, []*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// Transpose permutes the axes of x.
func (b *Builder) Transpose(x *graph.Tensor, perm ...int) *graph.Tensor {
	if len(perm) != x.Shape.Rank() {
		shapePanic("transpose: perm length %d != rank %d", len(perm), x.Shape.Rank())
	}
	outShape := make(tensor.Shape, len(perm))
	for i, p := range perm {
		outShape[i] = x.Shape.Dim(p)
	}
	out := b.actLike("transpose", outShape, x)
	b.add("transpose", Transpose{Perm: perm}, []*graph.Tensor{x}, []*graph.Tensor{out})
	return out
}

// Scale multiplies x by a constant.
func (b *Builder) Scale(x *graph.Tensor) *graph.Tensor { return b.Unary(ScaleOp, x) }

func constDim(e symbolic.Expr, ctx string) int {
	v, ok := symbolic.IsConst(e)
	if !ok {
		shapePanic("%s must be a concrete dimension, got %v", ctx, e)
	}
	return int(v)
}
