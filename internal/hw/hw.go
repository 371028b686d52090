// Package hw models target accelerators with the Roofline performance model
// (paper §5.2, after Williams et al.): training-step time is bounded by
// either achievable compute throughput or achievable memory bandwidth, and
// the subbatch size is chosen to minimize per-sample step time (§5.2.1).
package hw

import (
	"fmt"
	"math"
)

// Accelerator describes one compute device (paper Table 4). The JSON form
// is the catalog interchange format: catalog entries, user-supplied custom
// devices, and server payloads all use these field names.
type Accelerator struct {
	// Name identifies the configuration.
	Name string `json:"name"`
	// PeakFLOPS is dense compute throughput in FLOP/s at the device's
	// training precision — 32-bit for the paper's Table 4 target and the
	// GPU catalog entries; bf16 for the TPU entry, which has no dense
	// FP32 path.
	PeakFLOPS float64 `json:"peak_flops"`
	// CacheBytes is the on-chip (L2) cache capacity.
	CacheBytes float64 `json:"cache_bytes"`
	// MemBandwidth is off-chip memory bandwidth in B/s.
	MemBandwidth float64 `json:"mem_bandwidth"`
	// MemCapacity is off-chip memory capacity in bytes.
	MemCapacity float64 `json:"mem_capacity"`
	// InterconnectBW is the inter-device link bandwidth in B/s.
	InterconnectBW float64 `json:"interconnect_bw"`
	// AchievableCompute and AchievableMemBW are the attainable fractions of
	// peak (paper: 80% and 70%, consistent with existing hardware).
	AchievableCompute float64 `json:"achievable_compute"`
	AchievableMemBW   float64 `json:"achievable_mem_bw"`
	// CostPerHourUSD is the per-device-hour rental price used to cost
	// cluster plans. Zero means "unpriced": the capacity planner then
	// omits the cost objective for searches touching this device.
	CostPerHourUSD float64 `json:"cost_per_hour_usd,omitempty"`
	// TDPWatts is the per-device board power used for energy estimates.
	// Zero means unknown (plans report zero energy).
	TDPWatts float64 `json:"tdp_watts,omitempty"`
}

// Priced reports whether the device carries a rental price, making it
// eligible for cost-objective ranking in the capacity planner.
func (a Accelerator) Priced() bool { return a.CostPerHourUSD > 0 }

// Fingerprint canonically identifies a device configuration for cache
// keys: every projection-relevant field enters, so two devices sharing a
// name but differing anywhere memoize separately. The name is the one
// user-controlled component (custom uploads), so %q confines it to an
// escaped, quoted segment — a crafted name cannot forge other key
// components and poison a shared cache.
func (a Accelerator) Fingerprint() string {
	return fmt.Sprintf("%q/%g/%g/%g/%g/%g/%g/%g/%g/%g", a.Name, a.PeakFLOPS, a.CacheBytes,
		a.MemBandwidth, a.MemCapacity, a.InterconnectBW, a.AchievableCompute, a.AchievableMemBW,
		a.CostPerHourUSD, a.TDPWatts)
}

// Validate rejects configurations that would poison the Roofline and
// case-study math with NaN or Inf: non-positive peaks, bandwidths,
// capacities, caches or links (cache_bytes and interconnect_bw are
// divisors in the tile-traffic and allreduce models), and achievable
// fractions outside (0, 1].
func (a Accelerator) Validate() error {
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"peak_flops", a.PeakFLOPS},
		{"mem_bandwidth", a.MemBandwidth},
		{"mem_capacity", a.MemCapacity},
		{"cache_bytes", a.CacheBytes},
		{"interconnect_bw", a.InterconnectBW},
		{"achievable_compute", a.AchievableCompute},
		{"achievable_mem_bw", a.AchievableMemBW},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("hw: accelerator %q: %s must be finite, got %v", a.Name, c.field, c.v)
		}
		if c.v <= 0 {
			return fmt.Errorf("hw: accelerator %q: %s must be positive, got %v", a.Name, c.field, c.v)
		}
	}
	if a.AchievableCompute > 1 {
		return fmt.Errorf("hw: accelerator %q: achievable_compute %v above 1", a.Name, a.AchievableCompute)
	}
	if a.AchievableMemBW > 1 {
		return fmt.Errorf("hw: accelerator %q: achievable_mem_bw %v above 1", a.Name, a.AchievableMemBW)
	}
	// Cost and power are optional (zero = unpriced / unknown) but must be
	// finite and non-negative: a negative price would invert cost ranking.
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"cost_per_hour_usd", a.CostPerHourUSD},
		{"tdp_watts", a.TDPWatts},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("hw: accelerator %q: %s must be finite, got %v", a.Name, c.field, c.v)
		}
		if c.v < 0 {
			return fmt.Errorf("hw: accelerator %q: %s must be non-negative, got %v", a.Name, c.field, c.v)
		}
	}
	return nil
}

// TargetAccelerator returns the paper's Table 4 configuration
// (NVIDIA V100-class).
func TargetAccelerator() Accelerator {
	return Accelerator{
		Name:              "target-v100-class",
		PeakFLOPS:         15.67e12,
		CacheBytes:        6e6,
		MemBandwidth:      898e9,
		MemCapacity:       32e9,
		InterconnectBW:    56e9,
		AchievableCompute: 0.80,
		AchievableMemBW:   0.70,
		CostPerHourUSD:    3.06, // on-demand single-V100 cloud rate class
		TDPWatts:          300,
	}
}

// RidgePoint is the operational intensity (FLOP/B) at which peak compute and
// peak bandwidth balance (paper: 17.4 FLOP/B).
func (a Accelerator) RidgePoint() float64 {
	return a.PeakFLOPS / a.MemBandwidth
}

// EffectiveRidgePoint uses achievable throughputs (paper: 19.9 FLOP/B).
func (a Accelerator) EffectiveRidgePoint() float64 {
	return (a.AchievableCompute * a.PeakFLOPS) / (a.AchievableMemBW * a.MemBandwidth)
}

// StepTime is the Roofline estimate for a workload of the given algorithmic
// FLOPs and bytes (paper §5.2.2):
//
//	rt = max(ct / (80%·xc), at / (70%·xa))
//
// Zero (or negative, clamped) FLOPs and bytes are well-defined: a step
// that computes and moves nothing takes zero seconds. Callers feeding
// degenerate evaluations (a data-movement-only subgraph, an empty
// checkpoint) therefore never see NaN out of the Roofline.
func (a Accelerator) StepTime(flops, bytes float64) float64 {
	if !(flops > 0) && !(bytes > 0) {
		return 0
	}
	ct := flops / (a.AchievableCompute * a.PeakFLOPS)
	at := bytes / (a.AchievableMemBW * a.MemBandwidth)
	return math.Max(ct, at)
}

// ComputeBound reports whether the workload is limited by compute rather
// than bandwidth under the achievable-roofline model.
func (a Accelerator) ComputeBound(flops, bytes float64) bool {
	return flops/bytes >= a.EffectiveRidgePoint()
}

// Utilization is the algorithmic-FLOP utilization achieved when the workload
// runs in the given time: flops / (time · peak).
func (a Accelerator) Utilization(flops, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / (seconds * a.PeakFLOPS)
}

// Fits reports whether a memory footprint fits in device memory.
func (a Accelerator) Fits(footprintBytes float64) bool {
	return footprintBytes <= a.MemCapacity
}

// ---------------------------------------------------------------------------
// Subbatch selection (paper §5.2.1, Figure 11)

// SubbatchPoint is one sample of the Figure 11 sweep.
type SubbatchPoint struct {
	Subbatch       float64 `json:"subbatch"`
	FLOPs          float64 `json:"flops"`
	Bytes          float64 `json:"bytes"`
	Intensity      float64 `json:"intensity"` // graph-level operational intensity
	StepTime       float64 `json:"step_time"`
	TimePerSample  float64 `json:"time_per_sample"`
	FootprintBytes float64 `json:"footprint_bytes"`
	Utilization    float64 `json:"utilization"`
}

// SubbatchPolicy selects among the three §5.2.1 points of interest.
type SubbatchPolicy int

// The paper's three candidate policies.
const (
	// MinTimePerSample picks the smallest subbatch whose per-sample time is
	// within tolerance of the sweep minimum (the paper's preferred policy).
	MinTimePerSample SubbatchPolicy = iota
	// RidgePointMatch picks the smallest subbatch whose graph-level
	// operational intensity reaches the accelerator's effective ridge point.
	RidgePointMatch
	// IntensitySaturation picks the smallest subbatch whose intensity is
	// within tolerance of the sweep's maximum intensity (large footprint).
	IntensitySaturation
)

func (p SubbatchPolicy) String() string {
	switch p {
	case MinTimePerSample:
		return "min-time-per-sample"
	case RidgePointMatch:
		return "ridge-point-match"
	case IntensitySaturation:
		return "intensity-saturation"
	}
	return "unknown"
}

// ChooseSubbatch applies a policy to a sweep. tol is the relative tolerance
// (e.g. 0.05) used by MinTimePerSample and IntensitySaturation. Those two
// policies fail with an explicit error when no sweep point lands within
// tolerance of the optimum (possible only with degenerate sweeps — NaN
// times or intensities, or a negative tolerance); RidgePointMatch falls
// back to the largest subbatch when the sweep never reaches the ridge,
// since that is the closest approach (the paper's CNNs behave this way).
func ChooseSubbatch(points []SubbatchPoint, acc Accelerator, policy SubbatchPolicy, tol float64) (SubbatchPoint, error) {
	if len(points) == 0 {
		return SubbatchPoint{}, fmt.Errorf("hw: %s: empty subbatch sweep", policy)
	}
	switch policy {
	case MinTimePerSample:
		best := math.Inf(1)
		for _, p := range points {
			if p.TimePerSample < best {
				best = p.TimePerSample
			}
		}
		for _, p := range points {
			if p.TimePerSample <= best*(1+tol) {
				return p, nil
			}
		}
		return SubbatchPoint{}, fmt.Errorf(
			"hw: %s: no subbatch within tolerance %v of minimum time/sample %v", policy, tol, best)
	case RidgePointMatch:
		ridge := acc.EffectiveRidgePoint()
		for _, p := range points {
			if p.Intensity >= ridge {
				return p, nil
			}
		}
		return points[len(points)-1], nil
	case IntensitySaturation:
		best := 0.0
		for _, p := range points {
			if p.Intensity > best {
				best = p.Intensity
			}
		}
		for _, p := range points {
			if p.Intensity >= best*(1-tol) {
				return p, nil
			}
		}
		return SubbatchPoint{}, fmt.Errorf(
			"hw: %s: no subbatch within tolerance %v of peak intensity %v", policy, tol, best)
	}
	return SubbatchPoint{}, fmt.Errorf("hw: unknown subbatch policy %d", int(policy))
}

// PowersOfTwo returns {1, 2, 4, ..., 2^max} as float64s — the standard
// Figure 11 sweep domain.
func PowersOfTwo(max int) []float64 {
	out := make([]float64, 0, max+1)
	for i := 0; i <= max; i++ {
		out = append(out, float64(int64(1)<<uint(i)))
	}
	return out
}
