package catamount

import (
	"math"
	"sync"
	"testing"
)

// TestEngineConcurrentMixedQueries hammers one Engine from many goroutines
// with mixed Analyze / Profile / Figure11 / FrontierTable queries across
// domains and catalog accelerators. Run under -race it verifies the lazily
// memoized model builds, the per-accelerator case-study map, and the
// compiled program evaluation are all safe for the serving workload
// catamountd puts on them.
func TestEngineConcurrentMixedQueries(t *testing.T) {
	eng := NewEngine()
	accs := Accelerators()
	goroutines := 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*16)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, d := range Domains() {
				if _, err := eng.Analyze(d, 1e8+float64(g)*1e7, 32); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Profile(d, 5e7, 16); err != nil {
					errs <- err
					return
				}
			}
			// One heavy accelerator-parameterized query per goroutine, with
			// the device rotated so concurrent queries mix catalog entries.
			if _, err := eng.Figure11(accs[g%len(accs)]); err != nil {
				errs <- err
				return
			}
			if !testing.Short() {
				if _, err := eng.FrontierTable(accs[g%len(accs)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineCaseStudyMemoizedPerAccelerator checks that concurrent case
// study requests for the same device share one computation (pointer
// identity) while different devices memoize separately.
func TestEngineCaseStudyMemoizedPerAccelerator(t *testing.T) {
	eng := NewEngine()
	const goroutines = 8
	results := make([]*CaseStudy, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cs, err := eng.WordLMCaseStudyOn(TargetAccelerator())
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = cs
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different case-study instance", g)
		}
	}
	// WordLMCaseStudy (the default-target convenience) shares the entry.
	cs, err := eng.WordLMCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if cs != results[0] {
		t.Fatal("default case study did not reuse the memoized target entry")
	}
}

// TestEngineCacheStatsShape pins the extended memo telemetry: occupancy,
// capacity, and eviction counters for both LRU memos, and the built-domain
// count.
func TestEngineCacheStatsShape(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Analyzer(Domains()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WordLMCaseStudy(); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Domains != 1 {
		t.Fatalf("Domains = %d after one domain build, want 1", st.Domains)
	}
	if st.CaseStudies != 1 {
		t.Fatalf("CaseStudies = %d, want 1", st.CaseStudies)
	}
	if st.CaseStudyCapacity <= 0 || st.PlanCapacity <= 0 {
		t.Fatalf("capacities not reported: %+v", st)
	}
	if st.CaseStudyEvictions != 0 || st.PlanEvictions != 0 {
		t.Fatalf("fresh engine reports evictions: %+v", st)
	}
}

// TestEngineAnalyzerLockFreeReads checks the mutex-guarded domain map:
// readers racing first builds of every domain always get the same analyzer
// instance per domain. Run under -race it covers the map's locking. (The
// name dates from the lock-free map the mutex replaced.)
func TestEngineAnalyzerLockFreeReads(t *testing.T) {
	eng := NewEngine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, d := range Domains() {
					a, err := eng.Analyzer(d)
					if err != nil {
						t.Error(err)
						return
					}
					b, err := eng.Analyzer(d)
					if err != nil {
						t.Error(err)
						return
					}
					if a != b {
						t.Errorf("%s: repeated Analyzer calls returned distinct instances", d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := eng.CacheStats(); st.Domains != len(Domains()) {
		t.Fatalf("Domains = %d, want %d", st.Domains, len(Domains()))
	}
}

// TestPlanMemoBounded fills the planner memo past its capacity with
// distinct single-candidate searches and checks the LRU bound holds and
// evictions are counted — the memo can no longer grow without bound under
// a scan of distinct queries. (The case-study memo shares the identical
// lru.Cache GetOrCreate wiring; its bound is covered by the lru package
// tests.)
func TestPlanMemoBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the planner memo past capacity")
	}
	eng := NewEngine()
	st0 := eng.CacheStats()
	overfill := st0.PlanCapacity + 8
	for i := 0; i < overfill; i++ {
		// Distinct budget per iteration → distinct canonical search key;
		// the one-candidate space keeps each search cheap.
		if _, err := eng.Plan(PlanSpec{
			Domain:       "wordlm",
			Accelerators: []string{"v100"},
			WorkerCounts: []int{8},
			Subbatches:   []float64{128},
			Strategies:   []string{"allreduce"},
			BudgetHours:  1e6 + float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Plans > st.PlanCapacity {
		t.Fatalf("planner memo %d entries exceeds capacity %d", st.Plans, st.PlanCapacity)
	}
	if st.PlanEvictions == 0 {
		t.Fatalf("overfilling by %d produced no evictions: %+v", overfill, st)
	}
}

// TestCatalogAcceleratorsAcrossAnalyses runs FrontierTable, Figure11, and
// the word-LM case study against every named catalog accelerator — the
// scenario-diversity axis the catalog exists for.
func TestCatalogAcceleratorsAcrossAnalyses(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog replay is not run in -short mode")
	}
	accs := Accelerators()
	if len(accs) < 5 {
		t.Fatalf("catalog has %d entries, want >= 5", len(accs))
	}
	eng := NewEngine()
	for _, acc := range accs {
		rows, err := eng.FrontierTable(acc)
		if err != nil {
			t.Fatalf("%s: FrontierTable: %v", acc.Name, err)
		}
		if len(rows) != len(Domains()) {
			t.Fatalf("%s: %d frontier rows", acc.Name, len(rows))
		}
		for _, f := range rows {
			if f.StepSeconds <= 0 || math.IsNaN(f.StepSeconds) || math.IsInf(f.StepSeconds, 0) {
				t.Fatalf("%s/%s: step time %v", acc.Name, f.Spec.Domain, f.StepSeconds)
			}
		}
		fig, err := eng.Figure11(acc)
		if err != nil {
			t.Fatalf("%s: Figure11: %v", acc.Name, err)
		}
		if len(fig.Chosen) != 3 {
			t.Fatalf("%s: %d chosen policies", acc.Name, len(fig.Chosen))
		}
		cs, err := eng.WordLMCaseStudyOn(acc)
		if err != nil {
			t.Fatalf("%s: case study: %v", acc.Name, err)
		}
		for _, st := range cs.Stages {
			if st.DaysPerEpoch <= 0 || math.IsNaN(st.DaysPerEpoch) {
				t.Fatalf("%s/%s: days/epoch %v", acc.Name, st.Name, st.DaysPerEpoch)
			}
		}
	}
	// Faster memory and compute must show up in the projections: the H100
	// frontier word LM step should beat the V100 one.
	v100, _ := eng.FrontierTable(TargetAccelerator())
	h100acc, err := AcceleratorByName("h100")
	if err != nil {
		t.Fatal(err)
	}
	h100, _ := eng.FrontierTable(h100acc)
	if h100[0].StepSeconds >= v100[0].StepSeconds {
		t.Fatalf("h100 step %v not faster than v100 %v", h100[0].StepSeconds, v100[0].StepSeconds)
	}
}

// TestRejectedAcceleratorsSurfaceEverywhere checks the Validate gate on
// every accelerator-taking Engine entry point.
func TestRejectedAcceleratorsSurfaceEverywhere(t *testing.T) {
	eng := NewEngine()
	bad := TargetAccelerator()
	bad.MemBandwidth = 0
	if _, err := eng.FrontierTable(bad); err == nil {
		t.Fatal("FrontierTable accepted a zero-bandwidth accelerator")
	}
	if _, err := eng.Figure11(bad); err == nil {
		t.Fatal("Figure11 accepted a zero-bandwidth accelerator")
	}
	if _, err := eng.WordLMCaseStudyOn(bad); err == nil {
		t.Fatal("WordLMCaseStudyOn accepted a zero-bandwidth accelerator")
	}
}
