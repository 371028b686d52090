package hw_test

import (
	"math"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/hw"
)

func TestTargetAcceleratorRidgePoints(t *testing.T) {
	a := hw.TargetAccelerator()
	// Paper §5.2: ridge point 17.4 FLOP/B, rising to 19.9 with achievable
	// throughputs.
	if r := a.RidgePoint(); math.Abs(r-17.45) > 0.1 {
		t.Fatalf("ridge = %.2f, want ~17.4", r)
	}
	if r := a.EffectiveRidgePoint(); math.Abs(r-19.94) > 0.1 {
		t.Fatalf("effective ridge = %.2f, want ~19.9", r)
	}
}

func TestStepTimeRoofline(t *testing.T) {
	a := hw.TargetAccelerator()
	// Compute-bound: intensity far above ridge.
	flops, bytes := 1e15, 1e12
	want := flops / (0.8 * a.PeakFLOPS)
	if got := a.StepTime(flops, bytes); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("compute-bound time = %v, want %v", got, want)
	}
	if !a.ComputeBound(flops, bytes) {
		t.Fatal("should be compute bound")
	}
	// Bandwidth-bound: intensity far below ridge.
	flops, bytes = 1e12, 1e12
	want = bytes / (0.7 * a.MemBandwidth)
	if got := a.StepTime(flops, bytes); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("bw-bound time = %v, want %v", got, want)
	}
	if a.ComputeBound(flops, bytes) {
		t.Fatal("should be bandwidth bound")
	}
}

func TestUtilizationBestCase(t *testing.T) {
	a := hw.TargetAccelerator()
	// A perfectly compute-bound workload achieves exactly the achievable
	// fraction (80%).
	flops := 1e15
	tm := a.StepTime(flops, 1) // negligible bytes
	if u := a.Utilization(flops, tm); math.Abs(u-0.8) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.8", u)
	}
	if a.Utilization(1, 0) != 0 {
		t.Fatal("zero-time utilization must be 0")
	}
}

func TestFits(t *testing.T) {
	a := hw.TargetAccelerator()
	if !a.Fits(31e9) || a.Fits(33e9) {
		t.Fatal("Fits misjudges 32GB capacity")
	}
}

// sweep prices a step whose FLOPs and bytes at subbatch b are cost(b)
// through the graph-level costmodel.SubbatchSweep.
func sweep(a hw.Accelerator, subbatches []float64, cost func(b float64) (flops, bytes float64)) []hw.SubbatchPoint {
	c := &costmodel.CostsBatch{Rows: len(subbatches)}
	for _, b := range subbatches {
		f, by := cost(b)
		c.FLOPs = append(c.FLOPs, f)
		c.Bytes = append(c.Bytes, by)
	}
	return costmodel.SubbatchSweep(c, subbatches, a, costmodel.GraphRoofline{})
}

// syntheticSweep mimics a recurrent model over subbatches 1 to 2^18:
// flops ∝ b, bytes = fixed + c·b, and a footprint of 1e9 + 1e7·b bytes,
// which the cost-only sweep leaves to its caller.
func syntheticSweep(a hw.Accelerator, fixedBytes, bytesPerSample, flopsPerSample float64) []hw.SubbatchPoint {
	pts := sweep(a, hw.PowersOfTwo(18), func(b float64) (float64, float64) {
		return flopsPerSample * b, fixedBytes + bytesPerSample*b
	})
	for i := range pts {
		pts[i].FootprintBytes = 1e9 + 1e7*pts[i].Subbatch
	}
	return pts
}

func TestSubbatchSweepMonotoneIntensity(t *testing.T) {
	a := hw.TargetAccelerator()
	pts := syntheticSweep(a, 4e9, 1e6, 481e9)
	for i := 1; i < len(pts); i++ {
		if pts[i].Intensity < pts[i-1].Intensity {
			t.Fatalf("intensity not monotone at %v", pts[i].Subbatch)
		}
		if pts[i].TimePerSample > pts[i-1].TimePerSample*1.0001 {
			t.Fatalf("time/sample increased at %v", pts[i].Subbatch)
		}
	}
	// Intensity saturates at flopsPerSample/bytesPerSample.
	last := pts[len(pts)-1]
	if limit := 481e9 / 1e6; last.Intensity > limit {
		t.Fatalf("intensity %v above saturation %v", last.Intensity, limit)
	}
}

func TestChooseSubbatchPolicies(t *testing.T) {
	a := hw.TargetAccelerator()
	pts := syntheticSweep(a, 4e9, 1e6, 481e9)
	minT, err := hw.ChooseSubbatch(pts, a, hw.MinTimePerSample, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := hw.ChooseSubbatch(pts, a, hw.RidgePointMatch, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := hw.ChooseSubbatch(pts, a, hw.IntensitySaturation, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5.2.1: ridge-point match under-utilizes (picks a smaller
	// subbatch than min-time), and saturation needs a much larger subbatch
	// and footprint than min-time.
	if ridge.Subbatch > minT.Subbatch {
		t.Fatalf("ridge subbatch %v > min-time subbatch %v", ridge.Subbatch, minT.Subbatch)
	}
	if sat.Subbatch < minT.Subbatch {
		t.Fatalf("saturation subbatch %v < min-time subbatch %v", sat.Subbatch, minT.Subbatch)
	}
	if sat.FootprintBytes <= minT.FootprintBytes {
		t.Fatal("saturation should cost more footprint")
	}
	// Min-time subbatch should land ~1-2x above the ridge-match subbatch
	// (paper: about 1.5x) for recurrent-shaped workloads.
	ratio := minT.Subbatch / ridge.Subbatch
	if ratio < 1 || ratio > 8 {
		t.Fatalf("min-time/ridge subbatch ratio = %v, want small multiple", ratio)
	}
}

func TestChooseSubbatchEmpty(t *testing.T) {
	for _, pol := range []hw.SubbatchPolicy{hw.MinTimePerSample, hw.RidgePointMatch, hw.IntensitySaturation} {
		if _, err := hw.ChooseSubbatch(nil, hw.TargetAccelerator(), pol, 0.05); err == nil {
			t.Fatalf("%s: expected error for empty sweep", pol)
		}
	}
}

func TestChooseSubbatchSinglePoint(t *testing.T) {
	// A one-point sweep is its own optimum under every policy.
	pt := hw.SubbatchPoint{Subbatch: 32, Intensity: 100, TimePerSample: 1e-6}
	for _, pol := range []hw.SubbatchPolicy{hw.MinTimePerSample, hw.RidgePointMatch, hw.IntensitySaturation} {
		got, err := hw.ChooseSubbatch([]hw.SubbatchPoint{pt}, hw.TargetAccelerator(), pol, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if got.Subbatch != 32 {
			t.Fatalf("%s: chose %v, want the only point", pol, got.Subbatch)
		}
	}
}

func TestChooseSubbatchDegenerateSweepErrors(t *testing.T) {
	// NaN costs used to fall through to "silently return the last point";
	// they must now surface as explicit errors for the tolerance policies.
	nanPts := []hw.SubbatchPoint{
		{Subbatch: 1, TimePerSample: math.NaN(), Intensity: math.NaN()},
		{Subbatch: 2, TimePerSample: math.NaN(), Intensity: math.NaN()},
	}
	if _, err := hw.ChooseSubbatch(nanPts, hw.TargetAccelerator(), hw.MinTimePerSample, 0.05); err == nil {
		t.Fatal("min-time-per-sample: expected error for all-NaN sweep")
	}
	if _, err := hw.ChooseSubbatch(nanPts, hw.TargetAccelerator(), hw.IntensitySaturation, 0.05); err == nil {
		t.Fatal("intensity-saturation: expected error for all-NaN sweep")
	}
	// hw.RidgePointMatch keeps its documented closest-approach fallback.
	got, err := hw.ChooseSubbatch(nanPts, hw.TargetAccelerator(), hw.RidgePointMatch, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got.Subbatch != 2 {
		t.Fatalf("ridge-point-match fallback = %v, want last point", got.Subbatch)
	}
}

func TestChooseSubbatchUnknownPolicy(t *testing.T) {
	pts := []hw.SubbatchPoint{{Subbatch: 1, TimePerSample: 1, Intensity: 1}}
	if _, err := hw.ChooseSubbatch(pts, hw.TargetAccelerator(), hw.SubbatchPolicy(99), 0.05); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestPowersOfTwo(t *testing.T) {
	p := hw.PowersOfTwo(3)
	want := []float64{1, 2, 4, 8}
	if len(p) != len(want) {
		t.Fatalf("len = %d", len(p))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p[%d] = %v", i, p[i])
		}
	}
}
