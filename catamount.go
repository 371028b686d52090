// Package catamount is a Go reproduction of the analysis system behind
// "Beyond Human-Level Accuracy: Computational Challenges in Deep Learning"
// (Hestness, Ardalani, Diamos — PPoPP 2019) and of its published artifact,
// the Catamount compute-graph analyzer.
//
// The package exposes the paper's full pipeline:
//
//   - five domain training graphs (word LM, char LM, NMT, speech, ResNet)
//     with symbolic dimensions, explicit backward ops and optimizer updates;
//   - algorithmic FLOPs / bytes / memory-footprint characterization and the
//     fitted first-order models of Table 2;
//   - accuracy-frontier projections from power-law learning curves
//     (Tables 1 and 3, Figure 6);
//   - Roofline run-time estimation with subbatch selection (Table 4,
//     Figure 11);
//   - the word-LM parallelization case study: cache-hierarchy-aware GEMM
//     traffic, ring-allreduce data parallelism, layer parallelism, and
//     embedding sharding (Table 5, Figure 12).
//
// Two API layers are exposed. The package-level functions (Analyze,
// AsymptoticTable, FrontierTable, the figure generators) are conveniences
// over a shared process-wide Engine. An Engine is an analysis session that
// memoizes each domain's built model together with its compiled expression
// programs, so sweeps and repeated queries never rebuild or re-derive
// anything; long-lived servers should hold their own NewEngine. See
// README.md for a tour.
package catamount

import (
	"context"
	"io"
	"os"

	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/graphio"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/parallel"
	"catamount/internal/scaling"
)

// Domain identifies one of the paper's five application domains.
type Domain = models.Domain

// The five studied domains.
const (
	WordLM  = models.WordLM
	CharLM  = models.CharLM
	NMT     = models.NMT
	Speech  = models.Speech
	ImageCl = models.ImageCl
)

// Domains lists all domains in Table 1 order.
func Domains() []Domain { return models.AllDomains }

// Model is a training-step compute graph with scaling knobs.
type Model = models.Model

// Requirements is a per-step characterization (FLOPs, bytes, footprint).
type Requirements = core.Requirements

// Asymptotics holds fitted Table 2 constants (γ, λ, µ, δ).
type Asymptotics = core.Asymptotics

// Frontier is one Table 3 row.
type Frontier = core.Frontier

// Projection is one Table 1 accuracy-scaling row.
type Projection = scaling.Projection

// DomainSpec is the Table 1 input data for one domain.
type DomainSpec = scaling.DomainSpec

// Accelerator is a Roofline hardware model (Table 4).
type Accelerator = hw.Accelerator

// CostModel is a pluggable step-time estimation backend. Two deterministic
// backends exist: "graph" (the paper's §5.2.2 graph-level Roofline, the
// default) and "perop" (the §4.1/§5.1 per-operation Roofline, which sums
// per-op max(compute, bandwidth) times over the compiled graph's node
// costs and never reports a faster step than "graph").
type CostModel = costmodel.Model

// CostModelInfo describes one backend for listings.
type CostModelInfo = costmodel.Info

// DefaultCostModel returns the default backend (the graph-level Roofline).
func DefaultCostModel() CostModel { return costmodel.Default() }

// ParseCostModel resolves a backend name or alias ("", "graph",
// "graph-roofline", "roofline", "perop", "per-op", "perop-roofline", ...)
// case-insensitively; "" means the default.
func ParseCostModel(name string) (CostModel, error) { return costmodel.Parse(name) }

// CostModels lists every step-time backend with its accepted aliases.
func CostModels() []CostModelInfo { return costmodel.Infos() }

// CaseStudy is the Table 5 word-LM parallelization result.
type CaseStudy = parallel.CaseStudyResult

// Build constructs the default training graph for a domain.
func Build(d Domain) (*Model, error) { return models.Build(d) }

// Analyze characterizes a domain's model at a target parameter count and
// subbatch size: algorithmic FLOPs, bytes, operational intensity, and
// minimal memory footprint for one training step. It uses the shared
// DefaultEngine, so the domain's model is built and compiled once per
// process.
func Analyze(d Domain, paramCount, subbatch float64) (Requirements, error) {
	return defaultEngine.Analyze(d, paramCount, subbatch)
}

// sessionAt compiles a one-shot analysis session for an already-built model
// and solves the size hyperparameter hitting the target parameter count —
// the shared front half of AnalyzeModel and ProfileModel.
func sessionAt(m *Model, paramCount float64) (*core.Analyzer, float64, error) {
	a, err := core.NewAnalyzer(m)
	if err != nil {
		return nil, 0, err
	}
	size, err := a.SizeForParams(paramCount)
	if err != nil {
		return nil, 0, err
	}
	return a, size, nil
}

// AnalyzeModel characterizes an already-built (possibly custom-configured)
// model at a parameter count, as Engine.Analyze does. The model is compiled
// on every call; prefer Engine.Analyze for repeated queries on default
// domain models.
func AnalyzeModel(m *Model, paramCount, subbatch float64) (Requirements, error) {
	a, size, err := sessionAt(m, paramCount)
	if err != nil {
		return Requirements{}, err
	}
	req, _, err := a.Point(context.Background(), size, subbatch, graph.PolicyMemGreedy,
		hw.TargetAccelerator(), costmodel.Default())
	return req, err
}

// AccuracyProjections computes Table 1: the data and model growth required
// to reach each domain's desired SOTA.
func AccuracyProjections() ([]Projection, error) { return scaling.ProjectAll() }

// AsymptoticTable fits Table 2's first-order requirement models for every
// domain (γ FLOPs/param, λ + µ·b/√p bytes/param, δ footprint bytes/param)
// through the shared DefaultEngine.
func AsymptoticTable() ([]Asymptotics, error) {
	return defaultEngine.AsymptoticTable()
}

// FrontierTable computes Table 3: per-domain training requirements at the
// target accuracy on the target accelerator, through the shared
// DefaultEngine.
func FrontierTable(acc Accelerator) ([]Frontier, error) {
	return defaultEngine.FrontierTable(acc)
}

// TargetAccelerator returns the paper's Table 4 configuration.
func TargetAccelerator() Accelerator { return hw.TargetAccelerator() }

// Accelerators returns the named Roofline catalog: the Table 4 target plus
// A100-, H100-, TPUv3-, and CPU-class presets. Every accelerator-taking
// API (FrontierTable, Figure11, WordLMCaseStudyOn, the catamountd
// endpoints) accepts any entry.
func Accelerators() []Accelerator { return hw.Catalog() }

// AcceleratorByName finds a catalog entry by name or alias ("v100",
// "a100", ...), case-insensitively.
func AcceleratorByName(name string) (Accelerator, error) { return hw.Lookup(name) }

// ResolveAccelerator turns a command-line -accel flag value into a device:
// "" means the paper's Table 4 target, "@path" loads a custom accelerator
// from a JSON file (the catalog interchange schema), anything else is a
// catalog name or alias.
func ResolveAccelerator(ref string) (Accelerator, error) {
	switch {
	case ref == "":
		return hw.TargetAccelerator(), nil
	case ref[0] == '@':
		f, err := os.Open(ref[1:])
		if err != nil {
			return Accelerator{}, err
		}
		defer f.Close()
		return hw.ReadAccelerator(f)
	default:
		return hw.Lookup(ref)
	}
}

// WordLMCaseStudy runs the §6 step-by-step parallelization plan (Table 5),
// memoized on the shared DefaultEngine.
func WordLMCaseStudy() (*CaseStudy, error) {
	return defaultEngine.WordLMCaseStudy()
}

// SpecFor returns the Table 1 row for a domain.
func SpecFor(d Domain) (DomainSpec, error) { return scaling.SpecFor(d) }

// Profile is a TFprof-style per-op-kind and per-group cost breakdown.
type Profile = core.Profile

// ProfileModel computes the per-op breakdown of a model's training step. The
// model is compiled on every call; prefer Engine.Profile for repeated
// queries on default domain models.
func ProfileModel(m *Model, paramCount, subbatch float64) (*Profile, error) {
	a, size, err := sessionAt(m, paramCount)
	if err != nil {
		return nil, err
	}
	return a.Profile(size, subbatch)
}

// SaveCheckpoint serializes a model's compute graph as a JSON checkpoint
// (the Catamount artifact's save/load capability).
func SaveCheckpoint(w io.Writer, m *Model) error { return graphio.Save(w, m.Graph) }

// LoadCheckpoint reads a compute graph checkpoint. The result is a bare
// graph; analyses on it use the graph-level APIs directly.
func LoadCheckpoint(r io.Reader) (*graph.Graph, error) { return graphio.Load(r) }
