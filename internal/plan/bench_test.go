package plan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/models"
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

// BenchmarkPlanSearchDefaultSpace measures one warm search of the default
// 1,575-candidate space (the catalog × subbatches 8–512 × 1–16,384 workers
// × three strategies), the search the repository benchmark's plan_search
// workload runs, per domain and cost model.
func BenchmarkPlanSearchDefaultSpace(b *testing.B) {
	src := newBuildSource()
	for _, d := range models.AllDomains {
		for _, cm := range costmodel.Names() {
			b.Run(string(d)+"/"+cm, func(b *testing.B) {
				p, err := New(src, Spec{Domain: string(d), CostModel: cm})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Run(context.Background()); err != nil {
					b.Fatal(err) // build the domain before timing
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.Run(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// wideSearch is a 99,900-candidate image search, just under the 100,000
// candidates POST /v1/plan admits: the catalog × subbatches 1–37 × 1–180
// workers × three strategies.
func wideSearch() Spec {
	spec := Spec{Domain: "image"}
	for b := 1; b <= 37; b++ {
		spec.Subbatches = append(spec.Subbatches, float64(b))
	}
	for w := 1; w <= 180; w++ {
		spec.WorkerCounts = append(spec.WorkerCounts, w)
	}
	return spec
}

// BenchmarkMarkFrontier times the Pareto marking alone on the candidates of
// one real search: the default 1,575-candidate word-LM space and a
// 99,900-candidate image search. The flags are cleared each iteration.
func BenchmarkMarkFrontier(b *testing.B) {
	src := newBuildSource()
	for _, spec := range []Spec{{Domain: "wordlm"}, wideSearch()} {
		p, err := New(src, spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		priced := len(res.Objectives) == 3
		b.Run(fmt.Sprintf("candidates=%d", res.Candidates), func(b *testing.B) {
			plans := slices.Clone(res.Plans)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range plans {
					plans[j].OnFrontier = false
				}
				markFrontier(plans, priced)
			}
		})
	}
}
