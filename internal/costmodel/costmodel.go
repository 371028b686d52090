// Package costmodel is the pluggable step-time estimation subsystem. The
// paper's methodological core (§4.1, §5, Figure 8) is that run-time
// projection needs a per-operation view: individual ops land on different
// sides of the Roofline ridge point, so the graph-level estimate
// max(ΣFLOPs/xc, ΣBytes/xa) — which mixes compute-bound GEMMs with
// bandwidth-bound elementwise kernels into one aggregate intensity — is
// systematically optimistic. This package turns the single hard-coded
// formula into a Model interface with two deterministic backends:
//
//   - GraphRoofline ("graph"): the legacy §5.2.2 graph-level formula,
//     extracted verbatim and kept as the default so every golden table
//     stays byte-identical;
//   - PerOpRoofline ("perop"): sums per-op max(f_i/xc_i, b_i/xa_i) over the
//     compiled graph's node costs, with a per-op-kind achievable-efficiency
//     table (§5.1): tensor-core-eligible GEMM kernels attain the device's
//     full achievable compute but are derated by arithmetic intensity for
//     small/skinny shapes, vector-unit kernels run at a fraction of it, and
//     streaming/gather kernels (embedding, optimizer, gradient accumulation)
//     are effectively pinned to memory bandwidth.
//
// Every per-op efficiency is a multiplier in (0, 1] on the accelerator's
// achievable rates, and each op keeps the max(compute, bandwidth) form, so
// PerOpRoofline provably never reports a faster step than GraphRoofline:
// Σ_i max(f_i/(c_i·xc), b_i/(m_i·xa)) ≥ Σ_i max(f_i/xc, b_i/xa) ≥
// max(Σf_i/xc, Σb_i/xa). The gap between the two backends is exactly the
// projection optimism the paper warns about.
package costmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"catamount/internal/hw"
)

// OpCost is one graph node's evaluated cost: its op kind plus algorithmic
// FLOPs and bytes at a concrete (size, batch) binding.
type OpCost struct {
	Kind  string  `json:"kind"`
	FLOPs float64 `json:"flops"`
	Bytes float64 `json:"bytes"`
}

// Costs is the evaluated cost vector of one training step. FLOPs and Bytes
// are the graph totals every backend can use; Ops carries the per-node
// breakdown the per-op backend needs. Ops may be nil when only a
// graph-level backend will consume the vector (see NeedsOpCosts).
type Costs struct {
	FLOPs float64
	Bytes float64
	Ops   []OpCost
}

// GraphCosts wraps graph totals into a cost vector with no per-op detail.
func GraphCosts(flops, bytes float64) Costs {
	return Costs{FLOPs: flops, Bytes: bytes}
}

// Bound names the limiting resource of a step-time estimate.
type Bound string

// The two Roofline regimes.
const (
	BoundCompute   Bound = "compute"
	BoundBandwidth Bound = "bandwidth"
)

// Model estimates training-step run time on an accelerator from a step's
// cost vector. Implementations are stateless values, deterministic, and
// safe for concurrent use.
type Model interface {
	// Name is the canonical backend name ("graph", "perop"), used in memo
	// keys, metrics and wire formats.
	Name() string
	// StepTime estimates seconds per training step. It is well-defined for
	// any non-negative cost vector: an all-zero step takes zero seconds.
	StepTime(acc hw.Accelerator, c Costs) float64
	// Bound reports which resource limits the estimate.
	Bound(acc hw.Accelerator, c Costs) Bound
	// StepTimesBatch estimates seconds per training step for every row of
	// a batch, writing into dst (grown as needed and returned). When
	// bounds is non-nil it must hold Rows entries and receives each row's
	// limiting resource. Row r must equal StepTime and Bound on that row's
	// cost vector bit for bit. Every evaluation path, one point included,
	// prices through it.
	StepTimesBatch(acc hw.Accelerator, c *CostsBatch, dst []float64, bounds []Bound) []float64
}

// opCoster is the optional capability a backend declares when it consumes
// the per-op cost breakdown.
type opCoster interface{ NeedsOpCosts() bool }

// NeedsOpCosts reports whether the backend consumes Costs.Ops. Producers
// use it to skip evaluating per-node cost programs for graph-level
// backends.
func NeedsOpCosts(m Model) bool {
	if oc, ok := m.(opCoster); ok {
		return oc.NeedsOpCosts()
	}
	return false
}

// ---------------------------------------------------------------------------
// GraphRoofline

// GraphRoofline is the legacy graph-level Roofline backend (§5.2.2):
//
//	rt = max(ΣFLOPs / (xc·peak), ΣBytes / (xa·bw))
//
// It is the default backend; its estimates are bit-identical to the
// original hw.Accelerator.StepTime formula, keeping every golden table
// stable.
type GraphRoofline struct{}

// Name implements Model.
func (GraphRoofline) Name() string { return GraphName }

// StepTime implements Model with the §5.2.2 graph-level formula.
func (GraphRoofline) StepTime(acc hw.Accelerator, c Costs) float64 {
	return acc.StepTime(c.FLOPs, c.Bytes)
}

// Bound implements Model, matching hw.Accelerator.ComputeBound exactly
// (including its zero-cost behavior) so the default backend's sweep output
// is unchanged.
func (GraphRoofline) Bound(acc hw.Accelerator, c Costs) Bound {
	if acc.ComputeBound(c.FLOPs, c.Bytes) {
		return BoundCompute
	}
	return BoundBandwidth
}

// ---------------------------------------------------------------------------
// PerOpRoofline

// Class is one kernel class's achievable-efficiency entry: multipliers in
// (0, 1] applied to the accelerator's achievable compute and bandwidth
// when an op of the class runs alone (the per-op Roofline assumption).
type Class struct {
	// ComputeEff scales achievable compute (xc·peak).
	ComputeEff float64
	// MemEff scales achievable memory bandwidth (xa·bw).
	MemEff float64
	// IntensityDerate enables the small-GEMM derate: ComputeEff is further
	// scaled by I/(I + ridge), the classic half-peak-at-ridge saturation
	// curve, so skinny recurrent GEMMs near the ridge point achieve well
	// under peak (§5.1) while large square GEMMs approach it.
	IntensityDerate bool
}

// kernel classes, keyed by the op kinds of internal/ops.
var (
	// classGEMM: tensor-core-eligible dense linear algebra. At high
	// arithmetic intensity these attain the device's full achievable
	// compute — the mixed-precision-peak path of §5.1 — but the intensity
	// derate halves throughput at the ridge point, modeling tile
	// quantization and pipeline drain on small/skinny shapes.
	classGEMM = Class{ComputeEff: 1.0, MemEff: 1.0, IntensityDerate: true}
	// classVector: elementwise / normalization / softmax kernels on the
	// vector units. Their intensities sit far below the ridge, so they are
	// bandwidth-bound in practice; the compute efficiency matters only for
	// degenerate shapes.
	classVector = Class{ComputeEff: 0.50, MemEff: 1.0}
	// classGather: irregular-access kernels (embedding gather/scatter).
	// Random row access wastes DRAM burst transfers, so they attain a
	// reduced fraction of streaming bandwidth.
	classGather = Class{ComputeEff: 0.25, MemEff: 0.60}
	// classStream: pure data movement and optimizer updates — perfectly
	// streamable, pinned to bandwidth.
	classStream = Class{ComputeEff: 0.50, MemEff: 0.90}
)

// classes maps op kinds to kernel classes. Kinds absent from the table use
// defaultClass, a conservative vector-kernel assumption.
var classes = map[string]Class{
	"matmul":             classGEMM,
	"batched-matmul":     classGEMM,
	"conv2d":             classGEMM,
	"conv2d-grad-input":  classGEMM,
	"conv2d-grad-weight": classGEMM,

	"relu": classVector, "relu-grad": classVector,
	"sigmoid": classVector, "sigmoid-grad": classVector,
	"tanh": classVector, "tanh-grad": classVector,
	"scale": classVector, "scale-grad": classVector,
	"add": classVector, "sub": classVector, "mul": classVector,
	"bias-add":     classVector,
	"softmax":      classVector,
	"softmax-grad": classVector,
	"softmax-xent": classVector, "softmax-xent-grad": classVector,
	"batchnorm": classVector, "batchnorm-grad": classVector,
	"maxpool": classVector, "avgpool": classVector, "pool-grad": classVector,
	"reduce": classVector, "broadcast": classVector,

	"embedding":      classGather,
	"embedding-grad": classGather,

	"concat": classStream, "split": classStream, "transpose": classStream,
	"reshape": classStream, "fill": classStream, "grad-accum": classStream,
	"sgd-momentum": classStream,
}

var defaultClass = classVector

// ClassFor returns the efficiency entry for an op kind (defaultClass for
// unknown kinds).
func ClassFor(kind string) Class {
	if cl, ok := classes[kind]; ok {
		return cl
	}
	return defaultClass
}

// PerOpRoofline is the per-operation Roofline backend: each node's time is
// max(compute, bandwidth) at its kernel class's achievable efficiency, and
// the step is their sum (serial kernel execution, the framework-profiler
// view of §4.1). When the cost vector carries no per-op breakdown it
// degrades to the graph-level formula, so it is always well-defined.
type PerOpRoofline struct{}

// Name implements Model.
func (PerOpRoofline) Name() string { return PerOpName }

// NeedsOpCosts marks the backend as a per-op consumer.
func (PerOpRoofline) NeedsOpCosts() bool { return true }

// StepTime implements Model.
func (PerOpRoofline) StepTime(acc hw.Accelerator, c Costs) float64 {
	if len(c.Ops) == 0 {
		return acc.StepTime(c.FLOPs, c.Bytes)
	}
	xc := acc.AchievableCompute * acc.PeakFLOPS
	xa := acc.AchievableMemBW * acc.MemBandwidth
	ridge := xc / xa
	total := 0.0
	for _, op := range c.Ops {
		total += opTime(op, xc, xa, ridge)
	}
	return total
}

// Bound implements Model: the backend is compute-bound when the summed
// compute-side time across ops exceeds the summed bandwidth-side time.
func (PerOpRoofline) Bound(acc hw.Accelerator, c Costs) Bound {
	if len(c.Ops) == 0 {
		return GraphRoofline{}.Bound(acc, c)
	}
	tc, tb := perOpTimes(acc, c.Ops)
	if tc >= tb {
		return BoundCompute
	}
	return BoundBandwidth
}

// opSides is one node's per-op Roofline compute-side and bandwidth-side
// times at its class efficiencies — the single home of the efficiency-
// table math, so StepTime (max per op) and Bound (sum per side) can never
// disagree about an op's rates.
func opSides(op OpCost, xc, xa, ridge float64) (ct, at float64) {
	return opSidesClass(ClassFor(op.Kind), op.FLOPs, op.Bytes, xc, xa, ridge)
}

// opSidesClass is opSides with the class and values already in hand. The
// scalar and batched paths both go through it, so per-op arithmetic is
// identical instruction-for-instruction between them.
func opSidesClass(cl Class, flops, bytes, xc, xa, ridge float64) (ct, at float64) {
	if flops > 0 {
		ceff := cl.ComputeEff
		if cl.IntensityDerate && bytes > 0 {
			i := flops / bytes
			ceff *= i / (i + ridge)
		}
		ct = flops / (ceff * xc)
	}
	if bytes > 0 {
		at = bytes / (cl.MemEff * xa)
	}
	return ct, at
}

// opTime is one node's per-op Roofline time.
func opTime(op OpCost, xc, xa, ridge float64) float64 {
	ct, at := opSides(op, xc, xa, ridge)
	return math.Max(ct, at)
}

// perOpTimes sums the compute-side and bandwidth-side times separately,
// for the Bound verdict.
func perOpTimes(acc hw.Accelerator, ops []OpCost) (tc, tb float64) {
	xc := acc.AchievableCompute * acc.PeakFLOPS
	xa := acc.AchievableMemBW * acc.MemBandwidth
	ridge := xc / xa
	for _, op := range ops {
		ct, at := opSides(op, xc, xa, ridge)
		tc += ct
		tb += at
	}
	return tc, tb
}

// ---------------------------------------------------------------------------
// Registry

// Canonical backend names.
const (
	GraphName = "graph"
	PerOpName = "perop"
)

// aliases maps accepted spellings (lower-cased) to canonical names. The
// empty string resolves to the default backend, so every layer treats an
// omitted selector as "graph".
var aliases = map[string]string{
	"":                GraphName,
	"graph":           GraphName,
	"graph-roofline":  GraphName,
	"roofline":        GraphName,
	"perop":           PerOpName,
	"per-op":          PerOpName,
	"perop-roofline":  PerOpName,
	"per-op-roofline": PerOpName,
}

// Default returns the default backend: the legacy graph-level Roofline.
func Default() Model { return GraphRoofline{} }

// Parse resolves a backend name or alias (case-insensitively; "" means the
// default) to its Model. Every error out of Parse is a user-input problem.
func Parse(name string) (Model, error) {
	key, ok := aliases[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("costmodel: unknown cost model %q (one of: %s)",
			name, strings.Join(Names(), ", "))
	}
	switch key {
	case PerOpName:
		return PerOpRoofline{}, nil
	default:
		return GraphRoofline{}, nil
	}
}

// CanonicalName resolves a backend spelling to its canonical name, for
// memo keys: every alias of a backend produces the same key segment. It
// fails on unknown names like Parse.
func CanonicalName(name string) (string, error) {
	m, err := Parse(name)
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}

// Names lists the canonical backend names in deterministic order.
func Names() []string { return []string{GraphName, PerOpName} }

// Info describes one backend for listings (GET /v1/costmodels, CLI help).
type Info struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases"`
	Description string   `json:"description"`
	Default     bool     `json:"default"`
}

// Infos lists every backend with its accepted spellings.
func Infos() []Info {
	byName := map[string][]string{}
	for alias, canon := range aliases {
		if alias == "" || alias == canon {
			continue
		}
		byName[canon] = append(byName[canon], alias)
	}
	for _, v := range byName {
		sort.Strings(v)
	}
	return []Info{
		{
			Name:        GraphName,
			Aliases:     byName[GraphName],
			Description: "graph-level roofline: max(ΣFLOPs/xc, ΣBytes/xa) over the whole step (§5.2.2; the paper's Table 3/5 formula)",
			Default:     true,
		},
		{
			Name:        PerOpName,
			Aliases:     byName[PerOpName],
			Description: "per-op roofline: Σ max(f_i/xc_i, b_i/xa_i) over graph nodes with a per-op-kind achievable-efficiency table (§4.1, §5.1); never faster than graph",
		},
	}
}
