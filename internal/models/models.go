// Package models builds the paper's five application compute graphs (§2):
// word LM (LSTM), character LM (RHN), neural machine translation
// (encoder/decoder + attention), speech recognition (pyramidal
// encoder/decoder + attention), and image classification (bottleneck
// ResNet). Each graph is a complete training step — forward, backward, and
// SGD-momentum updates — with the model-scaling hyperparameter left
// symbolic, so one build supports whole model-size sweeps.
package models

import (
	"fmt"
	"slices"
	"strings"

	"catamount/internal/fit"
	"catamount/internal/graph"
	"catamount/internal/ops"
	"catamount/internal/symbolic"
)

// Domain enumerates the paper's application domains.
type Domain string

// The five studied domains.
const (
	WordLM  Domain = "wordlm"
	CharLM  Domain = "charlm"
	NMT     Domain = "nmt"
	Speech  Domain = "speech"
	ImageCl Domain = "image"
)

// AllDomains lists every domain in the paper's Table 1 order.
var AllDomains = []Domain{WordLM, CharLM, NMT, Speech, ImageCl}

// ParseDomain resolves a domain name, ignoring case and surrounding
// space. The error names the input and lists the known domains.
func ParseDomain(name string) (Domain, error) {
	key := Domain(strings.ToLower(strings.TrimSpace(name)))
	if slices.Contains(AllDomains, key) {
		return key, nil
	}
	known := make([]string, len(AllDomains))
	for i, d := range AllDomains {
		known[i] = string(d)
	}
	return "", fmt.Errorf("unknown domain %q (one of: %s)", name, strings.Join(known, ", "))
}

// Model wraps a training-step compute graph with its scaling knobs.
type Model struct {
	// Name describes the configuration.
	Name string
	// Domain is the application domain.
	Domain Domain
	// Graph is the full training step (forward + backward + updates).
	Graph *graph.Graph
	// SizeSymbol is the hyperparameter scaled to grow the model
	// ("h" for recurrent nets, "w" for ResNet width).
	SizeSymbol string
	// BatchSymbol is the per-step subbatch size symbol ("b").
	BatchSymbol string
	// SeqLen is the characteristic unroll length (1 for CNNs).
	SeqLen int
	// DefaultBatch is the paper's profiling subbatch for this domain.
	DefaultBatch float64

	paramExpr symbolic.Expr
	flopsExpr symbolic.Expr
	bytesExpr symbolic.Expr
}

// Env binds the model's size and batch symbols.
func (m *Model) Env(size, batch float64) symbolic.Env {
	return symbolic.Env{m.SizeSymbol: size, m.BatchSymbol: batch}
}

// ParamExpr returns the cached symbolic trainable-parameter count.
func (m *Model) ParamExpr() symbolic.Expr {
	if m.paramExpr == nil {
		m.paramExpr = m.Graph.ParamCount()
	}
	return m.paramExpr
}

// FLOPsExpr returns the cached symbolic per-step algorithmic FLOPs.
func (m *Model) FLOPsExpr() symbolic.Expr {
	if m.flopsExpr == nil {
		m.flopsExpr = m.Graph.TotalFLOPs()
	}
	return m.flopsExpr
}

// BytesExpr returns the cached symbolic per-step algorithmic bytes.
func (m *Model) BytesExpr() symbolic.Expr {
	if m.bytesExpr == nil {
		m.bytesExpr = m.Graph.TotalBytes()
	}
	return m.bytesExpr
}

// Params evaluates the trainable parameter count at the given size.
func (m *Model) Params(size float64) float64 {
	return symbolic.MustEval(m.ParamExpr(), m.Env(size, 1))
}

// SizeForParams inverts Params: the (continuous) size hyperparameter whose
// parameter count hits target.
func (m *Model) SizeForParams(target float64) (float64, error) {
	f := func(s float64) float64 { return m.Params(s) - target }
	lo, hi := 1e-3, 1e-3
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("models: target %g parameters unreachable", target)
		}
	}
	return fit.Bisect(f, lo, hi, 1e-9)
}

// Build constructs the default configuration for a domain.
func Build(d Domain) (*Model, error) {
	switch d {
	case WordLM:
		return BuildWordLM(DefaultWordLMConfig()), nil
	case CharLM:
		return BuildCharLM(DefaultCharLMConfig()), nil
	case NMT:
		return BuildNMT(DefaultNMTConfig()), nil
	case Speech:
		return BuildSpeech(DefaultSpeechConfig()), nil
	case ImageCl:
		return BuildResNet(DefaultResNetConfig()), nil
	}
	return nil, fmt.Errorf("models: unknown domain %q", d)
}

// MustBuild is Build that panics on unknown domains.
func MustBuild(d Domain) *Model {
	m, err := Build(d)
	if err != nil {
		panic(err)
	}
	return m
}

// lstmState carries the recurrent (h, c) pair between time steps.
type lstmState struct {
	h, c *graph.Tensor
}

// newLSTMState allocates zero-initialized initial state tensors. These are
// computed on-device (Fill), not staged training data, so algorithmic IO
// stays proportional to batch size alone (paper §2.1).
func newLSTMState(b *ops.Builder, name string, batch, hidden symbolic.Expr) lstmState {
	return lstmState{
		h: b.Zeros(name+"/h0", batch, hidden),
		c: b.Zeros(name+"/c0", batch, hidden),
	}
}

// lstmStep runs one fused-gate LSTM step: weights w[(in+h), 4h], bias[4h].
func lstmStep(b *ops.Builder, x *graph.Tensor, st lstmState, w, bias *graph.Tensor) lstmState {
	cat := b.Concat(1, x, st.h)
	z := b.BiasAdd(b.MatMul(cat, w), bias)
	gates := b.Split(z, 1, 4)
	i := b.Sigmoid(gates[0])
	f := b.Sigmoid(gates[1])
	g := b.Tanh(gates[2])
	o := b.Sigmoid(gates[3])
	c := b.Add(b.Mul(f, st.c), b.Mul(i, g))
	h := b.Mul(o, b.Tanh(c))
	return lstmState{h: h, c: c}
}

// lstmParams declares one LSTM layer's fused weights for inDim inputs and
// hidden units.
func lstmParams(b *ops.Builder, name string, inDim, hidden symbolic.Expr) (w, bias *graph.Tensor) {
	four := symbolic.Mul(symbolic.C(4), hidden)
	w = b.Param(name+"/w", symbolic.Add(inDim, hidden), four)
	bias = b.Param(name+"/b", four)
	return w, bias
}

// timeDistributedOutput applies the FC softmax output layer per time step —
// the standard unrolled-RNN implementation the paper profiles, in which the
// [outDim, vocab] projection weights are re-streamed every step (this is
// what drives the λ ≈ 6q·4 B/param byte counts of Table 2). Per-step losses
// are chained into one scalar.
func timeDistributedOutput(b *ops.Builder, steps []*graph.Tensor,
	outDim, batch symbolic.Expr, vocab int, labels *graph.Tensor) *graph.Tensor {

	wOut := b.Param("softmax_w", outDim, vocab)
	bOut := b.Param("softmax_b", vocab)
	labSlices := b.Split(labels, 1, len(steps))
	var loss *graph.Tensor
	for t, s := range steps {
		logits := b.BiasAdd(b.MatMul(s, wOut), bOut)
		lab := b.Reshape(labSlices[t], batch)
		l := b.SoftmaxXentLoss(logits, lab)
		if loss == nil {
			loss = l
		} else {
			loss = b.Add(loss, l)
		}
	}
	return loss
}

// stackTime3 joins per-step [b, h] tensors into [b, q, h] (for attention).
func stackTime3(b *ops.Builder, steps []*graph.Tensor, batch, hidden symbolic.Expr) *graph.Tensor {
	q := len(steps)
	expanded := make([]*graph.Tensor, q)
	for t, s := range steps {
		expanded[t] = b.Reshape(s, batch, 1, hidden)
	}
	if q == 1 {
		return expanded[0]
	}
	return b.Concat(1, expanded...)
}

// attachTraining appends the backward pass and optimizer and returns the
// finished model.
func attachTraining(b *ops.Builder, loss *graph.Tensor, m *Model) *Model {
	if err := ops.Backprop(b, loss, ops.SGDMomentum{LR: 0.5, Mu: 0.9}); err != nil {
		panic(fmt.Errorf("models: backprop failed for %s: %w", m.Name, err))
	}
	if err := b.G.Validate(); err != nil {
		panic(fmt.Errorf("models: invalid graph for %s: %w", m.Name, err))
	}
	m.Graph = b.G
	return m
}
