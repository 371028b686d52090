package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
)

// referenceSpec is the fixed grid the reference-grid tests and benchmarks
// share: all five domains × three parameter targets × two subbatches × the
// full five-entry accelerator catalog — 150 points, 30 characterizations,
// 15 size solves.
func referenceSpec() Spec {
	return Spec{
		Params:     []float64{5e7, 2e8, 1e9},
		Subbatches: []float64{32, 128},
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
	}
}

// TestReferenceGridHeapCeilings pins the warm per-point heap cost of the
// reference grid under both step-time backends: at most 64 allocations
// and a tenth of the pre-batching scalar pipeline's 174483.84 bytes per
// point. Counts, unlike wall-clock floors, hold on a one-CPU machine; they
// catch per-point reallocation creeping back into the batched path. Each
// backend is measured in two shapes: one Runner re-run, and a fresh New per
// run, as Engine.Sweep, plan searches, the server and jobs build one per
// call, so evaluation buffers must outlive the Runner. Each shape reports
// the least of five warm runs, because a GC empties the analyzers' session
// pools and the run after one reallocates its buffers.
func TestReferenceGridHeapCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reference grid under two backends")
	}
	const (
		allocsCeiling = 64.0
		bytesCeiling  = 174483.84 / 10
	)
	check := func(p Point) error {
		if p.Error != "" {
			return fmt.Errorf("point %d failed: %s", p.Seq, p.Error)
		}
		return nil
	}
	for _, backend := range []string{"graph", "perop"} {
		spec := referenceSpec()
		spec.CostModel = backend
		reused, err := New(sharedSource, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up: build and compile every domain and fill the session pools.
		if err := reused.Run(context.Background(), check); err != nil {
			t.Fatal(err)
		}
		shapes := []struct {
			name   string
			runner func() (*Runner, error)
		}{
			{"reused Runner", func() (*Runner, error) { return reused, nil }},
			{"fresh New per run", func() (*Runner, error) { return New(sharedSource, spec) }},
		}
		for _, shape := range shapes {
			allocs, bytes := math.Inf(1), math.Inf(1)
			var ms0, ms1 runtime.MemStats
			for run := 0; run < 5; run++ {
				runtime.ReadMemStats(&ms0)
				r, err := shape.runner()
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(context.Background(), check); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms1)
				pts := float64(r.Points())
				allocs = math.Min(allocs, float64(ms1.Mallocs-ms0.Mallocs)/pts)
				bytes = math.Min(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/pts)
			}
			t.Logf("%s, %s: %.1f allocs/point, %.0f B/point", backend, shape.name, allocs, bytes)
			if allocs > allocsCeiling {
				t.Errorf("%s, %s: %.1f allocs/point above ceiling %.0f", backend, shape.name, allocs, allocsCeiling)
			}
			if bytes > bytesCeiling {
				t.Errorf("%s, %s: %.0f B/point above ceiling %.0f", backend, shape.name, bytes, bytesCeiling)
			}
		}
	}
}

// BenchmarkSweepReferenceGridWarm measures steady-state grid throughput:
// the 150-point reference grid through an already-compiled session. The
// repository benchmark's sweep_grid workload measures the same path end
// to end; this is the in-package probe for profiling it.
func BenchmarkSweepReferenceGridWarm(b *testing.B) {
	r, err := New(sharedSource, referenceSpec())
	if err != nil {
		b.Fatal(err)
	}
	// Warm: build + compile every domain outside the timed region.
	if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Points()), "points/grid")
}

// BenchmarkSweepCellAmortization isolates the tentpole claim: the same
// 25-point (accelerator-amortized) grid as 25 per-point evaluations versus
// one sweep. Compare ns/op across the two benchmarks.
func BenchmarkSweepCellAmortization(b *testing.B) {
	r, err := New(sharedSource, Spec{
		Domains: []string{"wordlm"},
		Params:  []float64{1e8, 2e8, 4e8, 8e8, 1.6e9},
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
		Workers: 1, // isolate amortization from parallelism
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerPointEquivalent is BenchmarkSweepCellAmortization's per-point
// control: one full solve + characterization per grid point, the cost the
// sweep's cell sharing removes.
func BenchmarkPerPointEquivalent(b *testing.B) {
	a, err := sharedSource.Analyzer("wordlm")
	if err != nil {
		b.Fatal(err)
	}
	params := []float64{1e8, 2e8, 4e8, 8e8, 1.6e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			for acc := 0; acc < 5; acc++ {
				size, err := a.SizeForParams(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := a.Point(context.Background(), size, a.Model.DefaultBatch, graph.PolicyMemGreedy,
					hw.TargetAccelerator(), costmodel.Default()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
