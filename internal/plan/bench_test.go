package plan

import (
	"context"
	"testing"
)

// referenceSearch is the fixed search BenchmarkPlanSearch times: the
// frontier word LM over the full five-entry catalog, two subbatches,
// eleven worker counts, and all three strategies — 330 candidate plans
// composed from two characterizations and one size solve.
func referenceSearch() Spec {
	var workers []int
	for w := 1; w <= 1024; w *= 2 {
		workers = append(workers, w)
	}
	return Spec{
		Domain: "wordlm",
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
		Subbatches:   []float64{32, 128},
		WorkerCounts: workers,
	}
}

// BenchmarkPlanSearch measures one warm reference search end to end.
func BenchmarkPlanSearch(b *testing.B) {
	src := newBuildSource()
	p, err := New(src, referenceSearch())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		b.Fatal(err) // warm the source before timing
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
