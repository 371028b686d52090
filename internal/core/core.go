// Package core is the characterization and projection engine — the paper's
// primary contribution (§4–§5). It profiles the domain compute graphs across
// model sizes and batch sizes, fits the first-order requirement models
//
//	c_t(p)    ≈ γ·p            (FLOPs per training sample)
//	a_t(p,b)  ≈ λ·p + µ·b·√p   (bytes accessed per training step)
//	f_t(p)    ≈ δ·p            (minimal memory footprint)
//
// (Table 2), and projects the training-step requirements and Roofline run
// times of the frontier-scale models (Table 3).
package core

import (
	"fmt"
	"math"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/scaling"
)

// Requirements is a full characterization of one training step at a concrete
// model size and subbatch size.
type Requirements struct {
	Domain models.Domain `json:"domain"`
	Name   string        `json:"name"`
	// Size is the bound value of the model's size hyperparameter, Batch the
	// subbatch size.
	Size  float64 `json:"size"`
	Batch float64 `json:"batch"`
	// Params is the trainable parameter count.
	Params float64 `json:"params"`
	// FLOPsPerStep / BytesPerStep are the paper's algorithmic totals.
	FLOPsPerStep float64 `json:"flops_per_step"`
	BytesPerStep float64 `json:"bytes_per_step"`
	// FLOPsPerSample normalizes by the subbatch (Figure 7's y-axis).
	FLOPsPerSample float64 `json:"flops_per_sample"`
	// Intensity is graph-level operational intensity (Figure 9).
	Intensity float64 `json:"intensity"`
	// FootprintBytes is the minimal memory footprint (Figure 10);
	// PersistentBytes its weights+optimizer component.
	FootprintBytes  float64 `json:"footprint_bytes"`
	PersistentBytes float64 `json:"persistent_bytes"`
	// IOBytes is the algorithmic IO per step (§2.1: training data staged in,
	// proportional to batch size, fixed as models grow).
	IOBytes float64 `json:"io_bytes"`
	// FwdFLOPs / BwdFLOPs split the step (backprop ≈ 2x forward, §2.1).
	FwdFLOPs float64 `json:"fwd_flops"`
	BwdFLOPs float64 `json:"bwd_flops"`
}

// NonFinite names the first value of r, in JSON field order, that is not
// finite: a subbatch or model size large enough overflows float64, and
// JSON has no encoding for the result. Every path that emits a point
// applies it; callers prefix the error with their package name.
func NonFinite(r *Requirements) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"size", r.Size}, {"batch", r.Batch}, {"params", r.Params},
		{"flops_per_step", r.FLOPsPerStep}, {"bytes_per_step", r.BytesPerStep},
		{"flops_per_sample", r.FLOPsPerSample}, {"intensity", r.Intensity},
		{"footprint_bytes", r.FootprintBytes}, {"persistent_bytes", r.PersistentBytes},
		{"io_bytes", r.IOBytes}, {"fwd_flops", r.FwdFLOPs}, {"bwd_flops", r.BwdFLOPs},
	} {
		if err := NonFiniteField(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// NonFiniteField reports v, the value of the named field, if it is not
// finite.
func NonFiniteField(name string, v float64) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("%s is %v: the point overflows float64", name, v)
	}
	return nil
}

// RooflineEstimate is one step-time backend's view of a characterization:
// the projected step seconds on a device, the achieved utilization, and
// which resource binds — labeled with the backend that produced it.
type RooflineEstimate struct {
	CostModel    string  `json:"costmodel"`
	StepSeconds  float64 `json:"step_seconds"`
	Utilization  float64 `json:"utilization"`
	ComputeBound bool    `json:"compute_bound"`
}

// DefaultSweepTargets returns the paper's Figure 7–10 x-range for a domain
// (log-spaced parameter counts up to the published plot limits).
func DefaultSweepTargets(d models.Domain) []float64 {
	var lo, hi float64
	switch d {
	case models.WordLM:
		lo, hi = 2e7, 6e8
	case models.CharLM:
		lo, hi = 2e7, 4e8
	case models.NMT:
		lo, hi = 1e7, 3e8
	case models.Speech:
		lo, hi = 1e7, 3e8
	default: // image
		lo, hi = 1e7, 4e8
	}
	return LogSpace(lo, hi, 8)
}

// AsymptoticFitTargets returns the model-size range used when fitting the
// Table 2 asymptotes. Domains with production vocabularies (word LM, NMT)
// carry a large zero-FLOP embedding share at Figure 7 scales, so their γ
// only converges to the 6q asymptote at frontier sizes.
func AsymptoticFitTargets(d models.Domain) []float64 {
	switch d {
	case models.WordLM, models.NMT:
		return LogSpace(2e9, 3e10, 5)
	}
	return DefaultSweepTargets(d)
}

// LogSpace returns n log-spaced values between lo and hi inclusive.
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := 0; i < n; i++ {
		out[i] = v
		v *= ratio
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 2: asymptotic requirement models

// Asymptotics holds the fitted Table 2 constants for one domain.
type Asymptotics struct {
	Domain models.Domain `json:"domain"`
	// Gamma: FLOPs per parameter per training sample (c_t ≈ γ·p).
	Gamma float64 `json:"gamma"`
	// Lambda, Mu: a_t(p, b) ≈ λ·p + µ·b·√p.
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	// BytesR2 is the two-term fit quality.
	BytesR2 float64 `json:"bytes_r2"`
	// Delta: f_t ≈ δ·p at the profiling subbatch.
	Delta float64 `json:"delta"`
	// IntensityX, IntensityY render operational intensity in the paper's
	// form b·√p / (X·√p + Y·b): X = λ/γ, Y = µ/γ.
	IntensityX float64 `json:"intensity_x"`
	IntensityY float64 `json:"intensity_y"`
}

// IntensityAt evaluates the fitted operational-intensity form.
func (a Asymptotics) IntensityAt(p, b float64) float64 {
	sq := math.Sqrt(p)
	return b * sq / (a.IntensityX*sq + a.IntensityY*b)
}

// IntensityForm renders the Table 2 formula.
func (a Asymptotics) IntensityForm() string {
	return fmt.Sprintf("b*sqrt(p)/(%.2f*sqrt(p) + %.1f*b)", a.IntensityX, a.IntensityY)
}

// ---------------------------------------------------------------------------
// Table 3: frontier projections

// Frontier is one Table 3 row: the projected training requirements of a
// domain at its target accuracy.
type Frontier struct {
	Spec scaling.DomainSpec `json:"spec"`
	// TargetDataSamples / TargetParams come from the Table 1 projection.
	TargetDataSamples float64 `json:"target_data_samples"`
	TargetParams      float64 `json:"target_params"`
	// Size is the solved model hyperparameter.
	Size float64 `json:"size"`
	// Subbatch is chosen by the §5.2.1 min-time-per-sample policy.
	Subbatch float64 `json:"subbatch"`
	// TFLOPsPerStep / TBPerStep / FootprintGB are the per-step requirements.
	TFLOPsPerStep float64 `json:"tflops_per_step"`
	TBPerStep     float64 `json:"tb_per_step"`
	FootprintGB   float64 `json:"footprint_gb"`
	// StepSeconds and EpochDays are the Roofline estimates on the target
	// accelerator (infinite-memory assumption, §5.2).
	StepSeconds float64 `json:"step_seconds"`
	EpochDays   float64 `json:"epoch_days"`
	// Utilization is the achieved algorithmic-FLOP utilization.
	Utilization float64 `json:"utilization"`
	// MemoryMultiple is footprint / accelerator capacity (the paper's
	// "8–100x beyond current accelerator memory" observation).
	MemoryMultiple float64 `json:"memory_multiple"`
}

// FootprintPoint reports both the true footprint and a simulated
// framework-allocator view with a device capacity cap (Figure 10's swap
// plateau).
type FootprintPoint struct {
	Params          float64               `json:"params"`
	FootprintBytes  float64               `json:"footprint_bytes"`
	AllocatorReport graph.AllocatorReport `json:"allocator_report"`
}
