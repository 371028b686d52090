package hw_test

import (
	"math"
	"testing"

	"catamount/internal/hw"
)

// Regression tests for the divide-by-zero hazards: a step reporting zero
// bytes and/or zero FLOPs must flow through StepTime and SubbatchSweep
// without producing NaN or Inf anywhere in the point.

func TestStepTimeZeroWork(t *testing.T) {
	a := hw.TargetAccelerator()
	if got := a.StepTime(0, 0); got != 0 {
		t.Fatalf("StepTime(0, 0) = %v, want 0", got)
	}
	if got := a.StepTime(1e12, 0); got != 1e12/(a.AchievableCompute*a.PeakFLOPS) {
		t.Fatalf("StepTime(1e12, 0) = %v, want pure compute time", got)
	}
	if got := a.StepTime(0, 1e9); got != 1e9/(a.AchievableMemBW*a.MemBandwidth) {
		t.Fatalf("StepTime(0, 1e9) = %v, want pure bandwidth time", got)
	}
}

func TestSubbatchSweepZeroBytes(t *testing.T) {
	a := hw.TargetAccelerator()
	// A compute-only step: bytes stay zero at every subbatch.
	pts := sweep(a, hw.PowersOfTwo(4), func(b float64) (float64, float64) { return 1e9 * b, 0 })
	for _, p := range pts {
		for name, v := range map[string]float64{
			"intensity": p.Intensity, "step_time": p.StepTime,
			"time_per_sample": p.TimePerSample, "utilization": p.Utilization,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("subbatch %g: %s = %v", p.Subbatch, name, v)
			}
		}
		if p.Intensity != 0 {
			t.Fatalf("subbatch %g: zero-byte intensity = %v, want 0", p.Subbatch, p.Intensity)
		}
	}
	// The zero-traffic points must still be rankable by every policy.
	for _, pol := range []hw.SubbatchPolicy{hw.MinTimePerSample, hw.RidgePointMatch, hw.IntensitySaturation} {
		if _, err := hw.ChooseSubbatch(pts, a, pol, 0.05); err != nil {
			t.Fatalf("%s on zero-byte sweep: %v", pol, err)
		}
	}
}

func TestSubbatchSweepZeroWork(t *testing.T) {
	a := hw.TargetAccelerator()
	// A fully degenerate step: no FLOPs, no bytes. Previously Intensity was
	// 0/0 = NaN, which broke JSON encoding and policy scans.
	pts := sweep(a, hw.PowersOfTwo(3), func(float64) (float64, float64) { return 0, 0 })
	for _, p := range pts {
		if math.IsNaN(p.Intensity) || math.IsNaN(p.StepTime) || math.IsNaN(p.TimePerSample) {
			t.Fatalf("subbatch %g: NaN in %+v", p.Subbatch, p)
		}
		if p.StepTime != 0 || p.Intensity != 0 {
			t.Fatalf("subbatch %g: zero-work point = %+v, want zero time and intensity", p.Subbatch, p)
		}
	}
}
