package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/sweep"
)

// buildSource is a minimal memoizing SessionSource for tests: a fresh one
// reproduces the cold (build+compile) experience without dragging the full
// Engine in.
type buildSource struct {
	mu sync.Mutex
	m  map[models.Domain]*buildEntry
}

type buildEntry struct {
	once sync.Once
	a    *core.Analyzer
	err  error
}

func newBuildSource() *buildSource {
	return &buildSource{m: make(map[models.Domain]*buildEntry)}
}

// Analyzer builds and compiles a domain's model at most once.
func (s *buildSource) Analyzer(d models.Domain) (*core.Analyzer, error) {
	s.mu.Lock()
	ent, ok := s.m[d]
	if !ok {
		ent = &buildEntry{}
		s.m[d] = ent
	}
	s.mu.Unlock()
	ent.once.Do(func() {
		m, err := models.Build(d)
		if err != nil {
			ent.err = err
			return
		}
		ent.a, ent.err = core.NewAnalyzer(m)
	})
	return ent.a, ent.err
}

// smallSpec is a ≤200-candidate search used by the equivalence tests:
// 2 accelerators × 2 subbatches × 4 worker counts × 3 strategies = 48.
func smallSpec() Spec {
	return Spec{
		Domain:       "wordlm",
		Accelerators: []string{"v100", "cpu"},
		Subbatches:   []float64{32, 128},
		WorkerCounts: []int{1, 4, 16, 64},
	}
}

// bruteForce is the reference implementation: no sweep pool — one fresh
// Analyzer, one point query per (accelerator, subbatch) cell, nested loops
// in search order, and an independently-written O(n²) Pareto pass. Equivalence with Planner.Run
// is exact because both sides share Evaluate and the same bisection.
func bruteForce(t *testing.T, spec Spec) *Result {
	t.Helper()
	d := models.Domain(spec.Domain)
	target, err := ResolveTarget(d, spec.TargetErr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(m)
	if err != nil {
		t.Fatal(err)
	}
	size, err := a.SizeForParams(target.Params)
	if err != nil {
		t.Fatal(err)
	}

	var accs []hw.Accelerator
	for _, name := range spec.Accelerators {
		acc, err := hw.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, acc)
	}
	accs = append(accs, spec.Custom...)

	strategies := AllStrategies()
	if len(spec.Strategies) > 0 {
		strategies = nil
		for _, name := range spec.Strategies {
			st, err := ParseStrategy(name)
			if err != nil {
				t.Fatal(err)
			}
			strategies = append(strategies, st)
		}
	}

	priced := true
	for _, acc := range accs {
		if !acc.Priced() {
			priced = false
		}
	}

	cm, err := costmodel.Parse(spec.CostModel)
	if err != nil {
		t.Fatal(err)
	}

	var plans []Plan
	for _, acc := range accs {
		for _, b := range spec.Subbatches {
			req, est, cerr := a.Point(context.Background(), size, b, graph.PolicyMemGreedy, acc, cm)
			for _, w := range spec.WorkerCounts {
				for _, st := range strategies {
					if cerr != nil {
						plans = append(plans, Evaluate(target, acc, w, b, st, nil, 0, cerr.Error(), spec))
					} else {
						r := req
						plans = append(plans, Evaluate(target, acc, w, b, st, &r, est.StepSeconds, "", spec))
					}
				}
			}
		}
	}

	// Independent Pareto pass: collect feasible indices, test each pair.
	better := func(x, y Plan) bool { // x strictly dominates y
		le := x.TrainHours <= y.TrainHours && x.Devices <= y.Devices
		lt := x.TrainHours < y.TrainHours || x.Devices < y.Devices
		if priced {
			le = le && x.CostUSD <= y.CostUSD
			lt = lt || x.CostUSD < y.CostUSD
		}
		return le && lt
	}
	for i := range plans {
		if !plans[i].Feasible {
			continue
		}
		plans[i].OnFrontier = true
		for j := range plans {
			if j != i && plans[j].Feasible && better(plans[j], plans[i]) {
				plans[i].OnFrontier = false
				break
			}
		}
	}
	frontier := sortedFrontier(plans)
	objectives := []string{"train_hours", "devices"}
	if priced {
		objectives = append(objectives, "cost_usd")
	}
	return &Result{
		Target:     target,
		CostModel:  cm.Name(),
		Objectives: objectives,
		Candidates: len(plans),
		Frontier:   frontier,
		Plans:      plans,
	}
}

// markFrontierPairwise is the reference Pareto marking: every feasible plan
// tested against every other, O(n²), then the members sorted.
func markFrontierPairwise(plans []Plan, priced bool) []Plan {
	for i := range plans {
		if !plans[i].Feasible {
			continue
		}
		dominated := false
		for j := range plans {
			if i != j && plans[j].Feasible && dominates(&plans[j], &plans[i], priced) {
				dominated = true
				break
			}
		}
		plans[i].OnFrontier = !dominated
	}
	return sortedFrontier(plans)
}

// sortedFrontier copies the frontier members in outcome order: fastest
// first, ties broken by devices, cost, then identity fields.
func sortedFrontier(plans []Plan) []Plan {
	var out []Plan
	for _, p := range plans {
		if p.OnFrontier {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TrainHours != b.TrainHours {
			return a.TrainHours < b.TrainHours
		}
		if a.Devices != b.Devices {
			return a.Devices < b.Devices
		}
		if a.CostUSD != b.CostUSD {
			return a.CostUSD < b.CostUSD
		}
		if a.Accelerator != b.Accelerator {
			return a.Accelerator < b.Accelerator
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		if a.Subbatch != b.Subbatch {
			return a.Subbatch < b.Subbatch
		}
		return a.Workers < b.Workers
	})
	return out
}

// TestMarkFrontierMatchesPairwise checks the sort-and-scan marking against
// the pairwise oracle on random plan sets whose fields come from small
// value sets, so ties and exact duplicates are common. Hours include +Inf,
// costs include zero, feasibility is random, and unpriced searches carry a
// mixed catalog: cost set on the priced device's plans but not an
// objective. Workers are drawn apart from devices so every identity
// tie-break of the order is exercised.
func TestMarkFrontierMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	hours := []float64{0.5, 1, 2, 3, math.Inf(1)}
	costs := []float64{0, 1, 2.5, 4}
	devices := []int{1, 2, 4, 8}
	accs := []string{"priced-device", "donated-device"}
	subbatches := []float64{8, 64}
	strategies := AllStrategies()
	for trial := 0; trial < 10000; trial++ {
		priced := rng.Intn(2) == 0
		plans := make([]Plan, rng.Intn(61))
		for i := range plans {
			p := Plan{
				Accelerator: accs[rng.Intn(len(accs))],
				Strategy:    strategies[rng.Intn(len(strategies))],
				Workers:     devices[rng.Intn(len(devices))],
				Subbatch:    subbatches[rng.Intn(len(subbatches))],
				Devices:     devices[rng.Intn(len(devices))],
				TrainHours:  hours[rng.Intn(len(hours))],
				Feasible:    rng.Intn(4) != 0,
			}
			if priced || p.Accelerator == accs[0] {
				p.CostUSD = costs[rng.Intn(len(costs))]
			}
			plans[i] = p
		}
		want := slices.Clone(plans)
		wantFrontier := markFrontierPairwise(want, priced)
		got := slices.Clone(plans)
		gotFrontier := markFrontier(got, priced)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (priced %v): flags differ from the pairwise oracle:\n got  %+v\n want %+v",
				trial, priced, got, want)
		}
		if !reflect.DeepEqual(gotFrontier, wantFrontier) {
			t.Fatalf("trial %d (priced %v): frontier differs from the pairwise oracle:\n got  %+v\n want %+v",
				trial, priced, gotFrontier, wantFrontier)
		}
	}
}

// TestMarkFrontierMatchesPairwiseDefaultSpace checks the default
// 1,575-candidate search of every domain, under both cost models, against
// the pairwise oracle.
func TestMarkFrontierMatchesPairwiseDefaultSpace(t *testing.T) {
	src := newBuildSource()
	for _, d := range models.AllDomains {
		for _, cm := range costmodel.Names() {
			p, err := New(src, Spec{Domain: string(d), CostModel: cm})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Candidates != 1575 {
				t.Fatalf("%s/%s: %d candidates, want the default 1,575", d, cm, res.Candidates)
			}
			want := slices.Clone(res.Plans)
			for i := range want {
				want[i].OnFrontier = false
			}
			wantFrontier := markFrontierPairwise(want, len(res.Objectives) == 3)
			if !reflect.DeepEqual(res.Plans, want) {
				t.Errorf("%s/%s: frontier flags differ from the pairwise oracle", d, cm)
			}
			if len(wantFrontier) == 0 || !reflect.DeepEqual(res.Frontier, wantFrontier) {
				t.Errorf("%s/%s: frontier (%d plans) differs from the pairwise oracle's (%d)",
					d, cm, len(res.Frontier), len(wantFrontier))
			}
		}
	}
}

func runPlanner(t *testing.T, spec Spec) *Result {
	t.Helper()
	p, err := New(newBuildSource(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPlannerMatchesBruteForce(t *testing.T) {
	spec := smallSpec()
	got := runPlanner(t, spec)
	want := bruteForce(t, spec)

	if got.Candidates != want.Candidates || got.Candidates != 48 {
		t.Fatalf("candidates = %d, want %d", got.Candidates, want.Candidates)
	}
	if !reflect.DeepEqual(got.Plans, want.Plans) {
		for i := range got.Plans {
			if !reflect.DeepEqual(got.Plans[i], want.Plans[i]) {
				t.Fatalf("plan %d differs:\n got  %+v\n want %+v", i, got.Plans[i], want.Plans[i])
			}
		}
		t.Fatal("plans differ")
	}
	if !reflect.DeepEqual(got.Frontier, want.Frontier) {
		t.Fatalf("frontier differs:\n got  %+v\n want %+v", got.Frontier, want.Frontier)
	}
	if len(got.Frontier) == 0 {
		t.Fatal("empty frontier on the small grid")
	}
	if !reflect.DeepEqual(got.Frontier[0], want.Frontier[0]) {
		t.Fatalf("best plan differs: got %+v want %+v", got.Frontier[0], want.Frontier[0])
	}
}

// TestPlannerMatchesBruteForcePerOp replays the equivalence check under
// the per-op backend, and pins the macro consequence the paper warns
// about: per-op plans never train faster than graph-roofline plans for the
// same configuration.
func TestPlannerMatchesBruteForcePerOp(t *testing.T) {
	spec := smallSpec()
	spec.CostModel = "perop"
	got := runPlanner(t, spec)
	want := bruteForce(t, spec)
	if !reflect.DeepEqual(got.Plans, want.Plans) {
		for i := range got.Plans {
			if !reflect.DeepEqual(got.Plans[i], want.Plans[i]) {
				t.Fatalf("plan %d differs:\n got  %+v\n want %+v", i, got.Plans[i], want.Plans[i])
			}
		}
		t.Fatal("plans differ")
	}
	if got.CostModel != "perop" {
		t.Fatalf("result costmodel = %q, want perop", got.CostModel)
	}

	base := runPlanner(t, smallSpec())
	if len(base.Plans) != len(got.Plans) {
		t.Fatalf("grid sizes differ: %d vs %d", len(base.Plans), len(got.Plans))
	}
	for i := range got.Plans {
		g, p := base.Plans[i], got.Plans[i]
		if g.Accelerator != p.Accelerator || g.Workers != p.Workers || g.Subbatch != p.Subbatch || g.Strategy != p.Strategy {
			t.Fatalf("plan %d identity mismatch", i)
		}
		if p.ComputeSeconds < g.ComputeSeconds {
			t.Errorf("plan %d: per-op compute %.6g faster than graph %.6g", i, p.ComputeSeconds, g.ComputeSeconds)
		}
		if g.Feasible && p.Feasible && p.TrainHours < g.TrainHours {
			t.Errorf("plan %d: per-op train hours %.6g below graph %.6g", i, p.TrainHours, g.TrainHours)
		}
	}
}

func TestParetoInvariants(t *testing.T) {
	spec := smallSpec()
	res := runPlanner(t, spec)

	priced := len(res.Objectives) == 3
	// 1. No frontier member is dominated by any feasible plan.
	for _, f := range res.Frontier {
		for _, p := range res.Plans {
			if p.Feasible && dominates(&p, &f, priced) {
				t.Errorf("frontier plan %+v dominated by %+v", f, p)
			}
		}
	}
	// 2. Every feasible non-frontier plan is dominated by someone.
	for _, p := range res.Plans {
		if !p.Feasible || p.OnFrontier {
			continue
		}
		dominated := false
		for _, q := range res.Plans {
			if q.Feasible && dominates(&q, &p, priced) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier feasible plan %+v dominated by nobody", p)
		}
	}
	// 3. The frontier is sorted by the documented outcome order.
	for i := 1; i < len(res.Frontier); i++ {
		a, b := res.Frontier[i-1], res.Frontier[i]
		if a.TrainHours > b.TrainHours {
			t.Errorf("frontier not sorted: %g hours before %g", a.TrainHours, b.TrainHours)
		}
	}
	// 4. Two runs are byte-identical (deterministic regardless of worker
	// scheduling inside the sweep pool).
	again := runPlanner(t, spec)
	if !reflect.DeepEqual(res, again) {
		t.Error("two identical searches returned different results")
	}
}

// TestMoreWorkersNeverIncreaseComputeTime is the monotonicity property:
// with a fixed per-worker subbatch, adding workers never increases the
// compute-only step time, and strictly decreases the compute-only
// end-to-end time.
func TestMoreWorkersNeverIncreaseComputeTime(t *testing.T) {
	res := runPlanner(t, smallSpec())

	type key struct {
		acc string
		b   float64
		st  Strategy
	}
	groups := make(map[key][]Plan)
	for _, p := range res.Plans {
		k := key{p.Accelerator, p.Subbatch, p.Strategy}
		groups[k] = append(groups[k], p)
	}
	for k, plans := range groups {
		sort.Slice(plans, func(i, j int) bool { return plans[i].Workers < plans[j].Workers })
		for i := 1; i < len(plans); i++ {
			prev, cur := plans[i-1], plans[i]
			if cur.ComputeSeconds > prev.ComputeSeconds {
				t.Errorf("%v: compute step time rose from %g (w=%d) to %g (w=%d)",
					k, prev.ComputeSeconds, prev.Workers, cur.ComputeSeconds, cur.Workers)
			}
			prevTotal := prev.Steps * prev.ComputeSeconds
			curTotal := cur.Steps * cur.ComputeSeconds
			if curTotal >= prevTotal {
				t.Errorf("%v: compute-only train time did not shrink: %g (w=%d) -> %g (w=%d)",
					k, prevTotal, prev.Workers, curTotal, cur.Workers)
			}
		}
	}
}

func TestInfeasiblePlansAnnotatedNotDropped(t *testing.T) {
	tiny := hw.TargetAccelerator()
	tiny.Name = "tiny-mem"
	tiny.MemCapacity = 1e9 // 1 GB: everything OOMs
	spec := Spec{
		Domain:       "wordlm",
		Custom:       []hw.Accelerator{tiny},
		Subbatches:   []float64{0.5, 32},
		WorkerCounts: []int{1, 8},
	}
	res := runPlanner(t, spec)
	if res.Candidates != 2*2*3 || len(res.Plans) != res.Candidates {
		t.Fatalf("plans dropped: %d of %d", len(res.Plans), res.Candidates)
	}
	if len(res.Frontier) != 0 {
		t.Fatalf("expected empty frontier, got %d", len(res.Frontier))
	}
	for _, p := range res.Plans {
		if p.Feasible || len(p.Infeasible) == 0 {
			t.Fatalf("plan %+v should be annotated infeasible", p)
		}
		wantOOM := false
		for _, r := range p.Infeasible {
			if strings.Contains(r, "GB per device") {
				wantOOM = true
			}
		}
		if !wantOOM {
			t.Errorf("plan %+v missing OOM annotation: %v", p, p.Infeasible)
		}
		if p.Subbatch == 0.5 {
			found := false
			for _, r := range p.Infeasible {
				if strings.Contains(r, "below minimum") {
					found = true
				}
			}
			if !found {
				t.Errorf("subbatch 0.5 plan missing below-minimum annotation: %v", p.Infeasible)
			}
		}
	}
}

func TestBudgetsAnnotate(t *testing.T) {
	spec := smallSpec()
	spec.BudgetHours = 1e-6 // everything is over budget
	res := runPlanner(t, spec)
	if len(res.Frontier) != 0 {
		t.Fatalf("expected empty frontier under impossible budget, got %d", len(res.Frontier))
	}
	over := 0
	for _, p := range res.Plans {
		for _, r := range p.Infeasible {
			if strings.Contains(r, "hour budget") {
				over++
			}
		}
	}
	if over == 0 {
		t.Fatal("no plan annotated over time budget")
	}
}

func TestUnpricedDeviceOmitsCostObjective(t *testing.T) {
	free := hw.TargetAccelerator()
	free.Name = "donated-cluster"
	free.CostPerHourUSD = 0
	spec := Spec{
		Domain:       "image", // small models: plans actually fit
		Custom:       []hw.Accelerator{free},
		Subbatches:   []float64{32},
		WorkerCounts: []int{1, 2},
	}
	res := runPlanner(t, spec)
	for _, obj := range res.Objectives {
		if obj == "cost_usd" {
			t.Fatalf("cost objective active with an unpriced device: %v", res.Objectives)
		}
	}
	for _, p := range res.Plans {
		if p.CostUSD != 0 {
			t.Errorf("unpriced device produced cost %g", p.CostUSD)
		}
	}
}

func TestResolveTarget(t *testing.T) {
	// Zero target resolves to the Table 1 desired SOTA.
	target, err := ResolveTarget(models.WordLM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if target.TargetErr != 2.48 {
		t.Fatalf("default target err = %g, want 2.48", target.TargetErr)
	}
	// The computed growth should land near Table 1's published 100x data /
	// 23x model scale (the paper rounds its constants).
	if target.DataScale < 50 || target.DataScale > 200 {
		t.Errorf("data scale %.1fx implausibly far from Table 1's 100x", target.DataScale)
	}
	if target.ModelScale < 15 || target.ModelScale > 35 {
		t.Errorf("model scale %.1fx implausibly far from Table 1's 23x", target.ModelScale)
	}

	if _, err := ResolveTarget(models.WordLM, 1.0); err == nil {
		t.Error("target below irreducible error not rejected")
	}
	if _, err := ResolveTarget(models.WordLM, -1); err == nil {
		t.Error("negative target not rejected")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},                                 // missing domain
		{Domain: "tabular"},                // unknown domain
		{Domain: "wordlm", TargetErr: 0.1}, // below irreducible
		{Domain: "wordlm", WorkerCounts: []int{0}},
		{Domain: "wordlm", Subbatches: []float64{-4}},
		{Domain: "wordlm", Strategies: []string{"fsdp9000"}},
		{Domain: "wordlm", Accelerators: []string{"abacus"}},
		{Domain: "wordlm", BudgetHours: -1},
		{Domain: "wordlm", Epochs: -2},
		{Domain: "wordlm", OverlapBuckets: -1},
		{Domain: "wordlm", CostModel: "quantum"},
	}
	for i, spec := range bad {
		if _, err := New(newBuildSource(), spec); err == nil {
			t.Errorf("spec %d (%+v) not rejected", i, spec)
		}
	}
}

func TestKeyCanonicalAcrossAliases(t *testing.T) {
	a, err := New(newBuildSource(), Spec{Domain: "wordlm", Accelerators: []string{"v100"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(newBuildSource(), Spec{Domain: "wordlm", Accelerators: []string{"target-v100-class"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("alias spelling changed the key:\n %s\n %s", a.Key(), b.Key())
	}
	// The evaluation pool size must not affect the key.
	c, err := New(newBuildSource(), Spec{Domain: "wordlm", Accelerators: []string{"v100"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != c.Key() {
		t.Error("worker-pool size leaked into the key")
	}
	// Cost-model aliases canonicalize into one key; distinct backends do
	// not share one.
	var keys []string
	for _, name := range []string{"perop", "per-op", "Perop-Roofline", "per-op-roofline"} {
		p, err := New(newBuildSource(), Spec{Domain: "wordlm", Accelerators: []string{"v100"}, CostModel: name})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, p.Key())
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("cost-model alias changed the key:\n %s\n %s", keys[0], k)
		}
	}
	if keys[0] == a.Key() {
		t.Error("perop and graph searches share a key")
	}
	g, err := New(newBuildSource(), Spec{Domain: "wordlm", Accelerators: []string{"v100"}, CostModel: "graph-roofline"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Key() != a.Key() {
		t.Error("explicit graph alias diverged from the default key")
	}
}

func TestShardedReducesPerDeviceMemory(t *testing.T) {
	res := runPlanner(t, smallSpec())
	type key struct {
		acc string
		b   float64
		w   int
	}
	mem := make(map[key]map[Strategy]float64)
	for _, p := range res.Plans {
		k := key{p.Accelerator, p.Subbatch, p.Workers}
		if mem[k] == nil {
			mem[k] = make(map[Strategy]float64)
		}
		mem[k][p.Strategy] = p.MemPerDeviceGB
	}
	for k, byStrat := range mem {
		if k.w <= 1 {
			continue
		}
		if byStrat[StrategySharded] >= byStrat[StrategyAllReduce] {
			t.Errorf("%v: sharded mem %g GB not below allreduce %g GB",
				k, byStrat[StrategySharded], byStrat[StrategyAllReduce])
		}
	}
}

func TestCancelledContextStopsSearch(t *testing.T) {
	p, err := New(newBuildSource(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}

// TestReasonsMatchSprintf holds the strconv-built infeasibility reasons to
// the fmt.Sprintf formats they replace, byte for byte, on special values
// (±Inf, NaN, ±0), subnormals, the float64 extremes, values on the .05 and
// .5 rounding boundaries of %.1f and %.0f, and random values of every
// magnitude.
func TestReasonsMatchSprintf(t *testing.T) {
	vals := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		0.05, 0.15, 0.25, 0.35, 0.45, 0.95, 1.05, 2.45, 12.25, 99.95, -0.05, -2.45,
		0.049999999999999996, 0.05000000000000001, 1.0499999999999998,
		0.5, 1.5, 2.5, -0.5, -1.5, 1e21, 123456789.5, 1e15 + 0.5,
		1, 16, 0.1, 1e-9, 1e9, 32.5e9, 4.4e10, 1e300,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := math.Float64frombits(rng.Uint64())
		if rng.Intn(2) == 0 {
			v = rng.Float64() * math.Pow(10, float64(rng.Intn(40)-10))
		}
		vals = append(vals, v)
	}
	for i, a := range vals {
		b := vals[(i*7+3)%len(vals)]
		for _, c := range []struct{ got, want string }{
			{subbatchReason(a, b), fmt.Sprintf("subbatch %g below minimum %g", a, b)},
			{memoryReason(a, "target-v100-class", b),
				fmt.Sprintf("needs %.1f GB per device, %s has %.1f GB", a, "target-v100-class", b)},
			{hoursReason(a, b), fmt.Sprintf("%.1f train hours over the %.1f hour budget", a, b)},
			{costReason(a, b), fmt.Sprintf("$%.0f over the $%.0f budget", a, b)},
		} {
			if c.got != c.want {
				t.Fatalf("values %v, %v: got %q, fmt.Sprintf gives %q", a, b, c.got, c.want)
			}
		}
	}
}

// TestOverflowingSubbatchPlansEncode is cmd/plan's path for a subbatch
// whose image characterization overflows float64 (-domain image -subbatch
// 1e300 -format ndjson -all): every candidate of the default space is
// infeasible with a "characterize: " reason and encodes as an NDJSON line.
// Before, the search's first plan failed to encode with "json: unsupported
// value: +Inf".
func TestOverflowingSubbatchPlansEncode(t *testing.T) {
	res := runPlanner(t, Spec{Domain: "image", Subbatches: []float64{1e300}})
	if len(res.Plans) == 0 || len(res.Frontier) != 0 {
		t.Fatalf("%d plans, %d on the frontier; want plans and an empty frontier", len(res.Plans), len(res.Frontier))
	}
	var buf strings.Builder
	for _, p := range res.Plans {
		if p.Feasible || len(p.Infeasible) != 1 || !strings.HasPrefix(p.Infeasible[0], "characterize: sweep: flops_per_step is +Inf") {
			t.Fatalf("plan %+v: want one characterize reason", p)
		}
		if err := sweep.WriteJSONLine(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverflowingPlansEncode is cmd/plan's path for candidates whose
// outcome overflows float64 though their characterization may not:
// -subbatch 1e308 overflows the global batch of every multi-worker
// candidate, and -epochs 1e308 the steps and every total after them. Each
// such plan is infeasible with a reason naming the first non-finite field,
// reads 0 in its place, and encodes as an NDJSON line. Before, the first
// such plan failed to encode with "json: unsupported value: +Inf".
func TestOverflowingPlansEncode(t *testing.T) {
	for _, c := range []struct {
		spec   Spec
		reason string
	}{
		{Spec{Domain: "image", Subbatches: []float64{1e308}}, "global_batch is +Inf: the point overflows float64"},
		{Spec{Domain: "image", Epochs: 1e308, Subbatches: []float64{32}, WorkerCounts: []int{1}},
			"steps is +Inf: the point overflows float64"},
	} {
		res := runPlanner(t, c.spec)
		if len(res.Plans) == 0 || len(res.Frontier) != 0 {
			t.Fatalf("%+v: %d plans, %d on the frontier; want plans and an empty frontier", c.spec, len(res.Plans), len(res.Frontier))
		}
		var buf strings.Builder
		for _, p := range res.Plans {
			overflows := c.spec.Epochs > 0 || p.Workers > 1
			if p.Feasible || slices.Contains(p.Infeasible, c.reason) != overflows {
				t.Fatalf("%+v: plan %+v; want the reason %q: %v", c.spec, p, c.reason, overflows)
			}
			if err := sweep.WriteJSONLine(&buf, p); err != nil {
				t.Fatalf("%+v: plan %+v: %v", c.spec, p, err)
			}
		}
	}
}
