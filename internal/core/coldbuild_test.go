package core

import (
	"runtime"
	"testing"

	"catamount/internal/models"
)

// TestColdBuildAllocCeiling guards the cold build with counts, which hold
// on any runner: the bytes models.Build plus NewAnalyzer allocate across
// the five domains, and the heap the five analyzers still hold after two
// collections. Both fall when each distinct size and cost expression is
// derived once; rebuilding them per tensor, per edge or per caller shows
// here as hundreds of MB allocated and a larger retained heap. The five
// domains allocate about 110 MB when node costs are derived once per
// operand signature, and about 230 MB when every node derives its own.
func TestColdBuildAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and compiles all five domains")
	}
	const (
		allocCeilingMB    = 160.0
		retainedCeilingMB = 62.0
	)
	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	analyzers := make([]*Analyzer, 0, len(models.AllDomains))
	for _, d := range models.AllDomains {
		m, err := models.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAnalyzer(m)
		if err != nil {
			t.Fatal(err)
		}
		analyzers = append(analyzers, a)
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(analyzers)

	allocMB := float64(built.TotalAlloc-before.TotalAlloc) / 1e6
	retainedMB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6
	t.Logf("cold build of %d domains: %.1f MB allocated, %.1f MB retained", len(analyzers), allocMB, retainedMB)
	if allocMB > allocCeilingMB {
		t.Errorf("cold build allocated %.1f MB, above ceiling %.0f MB", allocMB, allocCeilingMB)
	}
	if retainedMB > retainedCeilingMB {
		t.Errorf("cold build retained %.1f MB after GC, above ceiling %.0f MB", retainedMB, retainedCeilingMB)
	}
}

// BenchmarkColdBuild measures one domain's cold build: models.Build, the
// symbolic cost derivation and the compile behind NewAnalyzer.
func BenchmarkColdBuild(b *testing.B) {
	for _, d := range models.AllDomains {
		b.Run(string(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := models.Build(d)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := NewAnalyzer(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
