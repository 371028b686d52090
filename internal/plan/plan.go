// Package plan is the inverse-query capacity planner: where every other
// layer answers "what does this configuration require?", plan answers the
// paper's headline question — *what hardware do I need to reach desired
// SOTA?* A Spec names an accuracy target (§3 learning curves invert it
// into data and model size), optional time and dollar budgets, and a
// search space of (accelerator × worker count × per-worker subbatch ×
// parallelism strategy). The planner composes learning curve → data/model
// size → per-step compute (§4–§5 characterization) → allreduce or
// overlap-scheduled step time (§6) into end-to-end time-to-train, memory
// feasibility, dollar cost, and energy per candidate, then returns the
// deterministic Pareto frontier over {time, devices, cost}.
//
// Infeasible candidates (OOM, below minimum subbatch, over budget) are
// annotated, never dropped: the "why not" of a plan is part of the answer.
// Candidate characterization reuses the internal/sweep worker pool and its
// compiled core.Sessions, so a thousand-config search costs a handful of
// characterizations plus cheap per-candidate arithmetic; a brute-force
// reference implementation is kept in tests for equivalence.
package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"catamount/internal/api"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/obs"
	"catamount/internal/parallel"
	"catamount/internal/scaling"
	"catamount/internal/sweep"
)

// stagePlanEval times the per-search candidate-composition loop (the cheap
// arithmetic after the sweep grid characterizes the search space).
var stagePlanEval = obs.Stage("plan_evaluate")

// stagePlanRun times a whole plan search — sweep grid plus composition —
// and roots the plan subtree inside a request or CLI trace.
var stagePlanRun = obs.Stage("plan_run")

// Strategy names one §6 parallelization scheme the planner searches over.
type Strategy string

// The searched strategies. All are synchronous-SGD data parallelism; they
// differ in how gradient communication is scheduled and where optimizer
// state lives.
const (
	// StrategyAllReduce is plain sync SGD: compute, then one monolithic
	// ring allreduce of the gradients (§6.2.1). Every worker holds the
	// full model state.
	StrategyAllReduce Strategy = "allreduce"
	// StrategyOverlap buckets the gradients and starts each bucket's ring
	// allreduce as backprop produces it, hiding communication behind the
	// remaining backward compute (§6.2.3). Full state per worker.
	StrategyOverlap Strategy = "overlap"
	// StrategySharded shards the persistent state (weights + optimizer)
	// across workers in the spirit of the paper's embedding sharding
	// (§6.2.2): per-worker memory drops to activations + state/workers,
	// at the same ring-collective volume (reduce-scatter + allgather),
	// serially scheduled.
	StrategySharded Strategy = "sharded"
)

// AllStrategies lists every searched strategy in canonical order.
func AllStrategies() []Strategy {
	return []Strategy{StrategyAllReduce, StrategyOverlap, StrategySharded}
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch Strategy(strings.ToLower(strings.TrimSpace(name))) {
	case StrategyAllReduce:
		return StrategyAllReduce, nil
	case StrategyOverlap:
		return StrategyOverlap, nil
	case StrategySharded:
		return StrategySharded, nil
	}
	return "", fmt.Errorf("plan: unknown strategy %q (allreduce, overlap, sharded)", name)
}

// Spec describes one inverse query: the target and the search space. It
// is an alias of the versioned wire type in internal/api — the canonical
// JSON schema of POST /v1/plan, the plan half of POST /v1/jobs, and the
// flag schema of cmd/plan.
type Spec = api.PlanSpec

// Target is the resolved inverse query: the §3 learning-curve inversion of
// the requested accuracy into data and model size.
type Target struct {
	Domain     models.Domain `json:"domain"`
	Name       string        `json:"name"`
	Metric     string        `json:"metric"`
	TargetErr  float64       `json:"target_err"`
	SampleUnit string        `json:"sample_unit"`
	// DataSamples is the training-set size (in SampleUnit units) the
	// learning curve demands; TrainSamples converts it to training
	// sequences for step accounting.
	DataSamples  float64 `json:"data_samples"`
	TrainSamples float64 `json:"train_samples"`
	// Params is the model size the growth law demands.
	Params float64 `json:"params"`
	// DataScale / ModelScale are the growth multiples over current SOTA.
	DataScale  float64 `json:"data_scale"`
	ModelScale float64 `json:"model_scale"`
}

// ResolveTarget inverts a domain's learning curve at the requested error
// (0 = the Table 1 desired SOTA) into the data and model sizes the §3
// scaling laws demand.
func ResolveTarget(d models.Domain, targetErr float64) (Target, error) {
	spec, err := scaling.SpecFor(d)
	if err != nil {
		return Target{}, err
	}
	if targetErr == 0 {
		targetErr = spec.DesiredSOTA
	}
	if math.IsNaN(targetErr) || math.IsInf(targetErr, 0) || targetErr <= 0 {
		return Target{}, fmt.Errorf("plan: target error must be positive and finite, got %v", targetErr)
	}
	if targetErr < spec.IrreducibleError {
		return Target{}, fmt.Errorf("plan: target error %g %s below the irreducible error %g for %s",
			targetErr, spec.Metric, spec.IrreducibleError, spec.Name)
	}
	data, err := spec.Curve.DataForError(targetErr)
	if err != nil {
		return Target{}, err
	}
	curve := scaling.NormalizedModelCurve(spec.BetaP, spec.CurrentDataSamples, spec.CurrentParams)
	params := curve.Params(data)
	return Target{
		Domain:       d,
		Name:         spec.Name,
		Metric:       spec.Metric,
		TargetErr:    targetErr,
		SampleUnit:   spec.SampleUnit,
		DataSamples:  data,
		TrainSamples: data / spec.TokensPerSample,
		Params:       params,
		DataScale:    data / spec.CurrentDataSamples,
		ModelScale:   params / spec.CurrentParams,
	}, nil
}

// Plan is one evaluated candidate: a concrete cluster configuration with
// its end-to-end outcome. Infeasible plans carry their reasons and stay in
// the result.
type Plan struct {
	Accelerator string   `json:"accelerator"`
	Strategy    Strategy `json:"strategy"`
	Workers     int      `json:"workers"`
	Subbatch    float64  `json:"subbatch"`
	GlobalBatch float64  `json:"global_batch"`

	// ComputeSeconds is the per-worker Roofline step time; CommSeconds the
	// exposed (un-hidden) communication per step; StepSeconds their
	// schedule-dependent sum.
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	StepSeconds    float64 `json:"step_seconds"`
	// Steps and TrainHours are the end-to-end totals for the target
	// dataset; Devices the cluster size.
	Steps      float64 `json:"steps"`
	TrainHours float64 `json:"train_hours"`
	Devices    int     `json:"devices"`
	// CostUSD is Devices × TrainHours × the device's hourly price (0 when
	// the device is unpriced); EnergyKWh the TDP-based energy estimate.
	CostUSD   float64 `json:"cost_usd,omitempty"`
	EnergyKWh float64 `json:"energy_kwh,omitempty"`
	// Utilization is achieved algorithmic-FLOP utilization including
	// communication stalls; MemPerDeviceGB the per-device residency under
	// the plan's strategy.
	Utilization    float64 `json:"utilization"`
	MemPerDeviceGB float64 `json:"mem_per_device_gb"`

	// Feasible is true when Infeasible is empty; Infeasible lists every
	// violated constraint (OOM, below min subbatch, over budget, or a
	// characterization error).
	Feasible   bool     `json:"feasible"`
	Infeasible []string `json:"infeasible,omitempty"`
	// OnFrontier marks membership in the Pareto frontier.
	OnFrontier bool `json:"on_frontier"`
}

// Result is one full search: the resolved target, every candidate in
// deterministic order, and the Pareto frontier.
type Result struct {
	Target Target `json:"target"`
	// CostModel is the canonical name of the step-time backend every
	// candidate was priced with.
	CostModel string `json:"costmodel"`
	// Objectives names the Pareto dimensions: always train_hours and
	// devices, plus cost_usd when every searched device is priced.
	Objectives []string `json:"objectives"`
	Candidates int      `json:"candidates"`
	// Frontier is the Pareto set, sorted by train hours, then devices,
	// then cost (then identity fields for full determinism).
	Frontier []Plan `json:"frontier"`
	// Plans is every candidate in search order (accelerator-major, then
	// subbatch, then workers, then strategy), infeasible ones annotated.
	Plans []Plan `json:"plans"`
}

// Planner is a validated search bound to a session source. Create with
// New; Run may be called any number of times.
type Planner struct {
	src        sweep.SessionSource
	target     Target
	accs       []hw.Accelerator
	workers    []int
	subbatches []float64
	strategies []Strategy

	model       costmodel.Model
	epochs      float64
	budgetHours float64
	budgetUSD   float64
	minSubbatch float64
	buckets     int
	pool        int
	priced      bool
}

// New validates a spec against the domain registry and accelerator catalog
// and resolves the target and search grid. Every error out of New is a
// spec problem (the server maps them to 400).
func New(src sweep.SessionSource, spec Spec) (*Planner, error) {
	if strings.TrimSpace(spec.Domain) == "" {
		return nil, fmt.Errorf("plan: spec needs a domain")
	}
	d, err := models.ParseDomain(spec.Domain)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	target, err := ResolveTarget(d, spec.TargetErr)
	if err != nil {
		return nil, err
	}
	p := &Planner{src: src, target: target}

	for _, name := range spec.Accelerators {
		acc, err := hw.Lookup(name)
		if err != nil {
			return nil, err
		}
		p.accs = append(p.accs, acc)
	}
	for _, acc := range spec.Custom {
		if acc.Name == "" {
			return nil, fmt.Errorf("plan: custom accelerator missing \"name\"")
		}
		if err := acc.Validate(); err != nil {
			return nil, err
		}
		p.accs = append(p.accs, acc)
	}
	if len(p.accs) == 0 {
		p.accs = hw.Catalog()
	}
	p.priced = true
	for _, acc := range p.accs {
		if !acc.Priced() {
			p.priced = false
		}
	}

	if len(spec.WorkerCounts) == 0 {
		for w := 1; w <= 16384; w *= 2 {
			p.workers = append(p.workers, w)
		}
	}
	for _, w := range spec.WorkerCounts {
		if w < 1 {
			return nil, fmt.Errorf("plan: worker counts must be >= 1, got %d", w)
		}
		p.workers = append(p.workers, w)
	}

	if len(spec.Subbatches) == 0 {
		for b := 8.0; b <= 512; b *= 2 {
			p.subbatches = append(p.subbatches, b)
		}
	}
	for _, b := range spec.Subbatches {
		if !(b > 0) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("plan: subbatches must be positive finite, got %v", b)
		}
		p.subbatches = append(p.subbatches, b)
	}

	if len(spec.Strategies) == 0 {
		p.strategies = AllStrategies()
	}
	for _, name := range spec.Strategies {
		st, err := ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		p.strategies = append(p.strategies, st)
	}

	cm, err := costmodel.Parse(spec.CostModel)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p.model = cm

	p.epochs = spec.Epochs
	if p.epochs == 0 {
		p.epochs = 1
	}
	if !(p.epochs > 0) || math.IsInf(p.epochs, 0) {
		return nil, fmt.Errorf("plan: epochs must be positive finite, got %v", spec.Epochs)
	}
	for _, c := range []struct {
		field string
		v     float64
	}{{"budget_hours", spec.BudgetHours}, {"budget_usd", spec.BudgetUSD}, {"min_subbatch", spec.MinSubbatch}} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return nil, fmt.Errorf("plan: %s must be non-negative finite, got %v", c.field, c.v)
		}
	}
	p.budgetHours = spec.BudgetHours
	p.budgetUSD = spec.BudgetUSD
	p.minSubbatch = spec.MinSubbatch
	if p.minSubbatch == 0 {
		p.minSubbatch = 1
	}
	p.buckets = spec.OverlapBuckets
	if p.buckets == 0 {
		p.buckets = 16
	}
	if p.buckets < 1 {
		return nil, fmt.Errorf("plan: overlap_buckets must be >= 1, got %d", spec.OverlapBuckets)
	}
	p.pool = spec.Workers
	return p, nil
}

// Target returns the resolved inverse query.
func (p *Planner) Target() Target { return p.target }

// CostModel returns the search's resolved step-time backend.
func (p *Planner) CostModel() costmodel.Model { return p.model }

// Candidates returns the search-space size: the number of Plans a Run
// yields.
func (p *Planner) Candidates() int {
	return len(p.accs) * len(p.subbatches) * len(p.workers) * len(p.strategies)
}

// Objectives names the active Pareto dimensions.
func (p *Planner) Objectives() []string {
	if p.priced {
		return []string{"train_hours", "devices", "cost_usd"}
	}
	return []string{"train_hours", "devices"}
}

// Key is a canonical fingerprint of the search: equal keys mean equal
// results, so memo layers (Engine.Plan, the server cache) can share
// entries across spellings. The cost-model backend enters by canonical
// name, so alias spellings ("perop", "per-op-roofline") share an entry.
// The evaluation pool size is deliberately excluded — it affects
// wall-clock, never the result.
func (p *Planner) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%g|%g|%g|%g|%g|%d|cm:%s", p.target.Domain, p.target.TargetErr,
		p.epochs, p.budgetHours, p.budgetUSD, p.minSubbatch, p.buckets, p.model.Name())
	sb.WriteString("|accs:")
	for _, acc := range p.accs {
		fmt.Fprintf(&sb, "%q/%g/%g/%g/%g/%g/%g/%g/%g/%g;", acc.Name, acc.PeakFLOPS,
			acc.CacheBytes, acc.MemBandwidth, acc.MemCapacity, acc.InterconnectBW,
			acc.AchievableCompute, acc.AchievableMemBW, acc.CostPerHourUSD, acc.TDPWatts)
	}
	fmt.Fprintf(&sb, "|w:%v|b:%v|s:%v", p.workers, p.subbatches, p.strategies)
	return sb.String()
}

// evalConfig bundles the per-search constants Evaluate composes each
// candidate against.
type evalConfig struct {
	target      Target
	epochs      float64
	minSubbatch float64
	buckets     int
	budgetHours float64
	budgetUSD   float64
}

func (p *Planner) config() evalConfig {
	return evalConfig{
		target:      p.target,
		epochs:      p.epochs,
		minSubbatch: p.minSubbatch,
		buckets:     p.buckets,
		budgetHours: p.budgetHours,
		budgetUSD:   p.budgetUSD,
	}
}

// Run evaluates the search. Characterizations fan out through the
// internal/sweep worker pool (one per unique subbatch, shared across
// every accelerator); the remaining per-candidate composition is cheap
// arithmetic. The context cancels the underlying sweep.
func (p *Planner) Run(ctx context.Context) (*Result, error) {
	rsp := obs.StartSpan(ctx, "plan_run", stagePlanRun)
	ctx = rsp.Attach(ctx)
	defer rsp.End()
	na, nb := len(p.accs), len(p.subbatches)

	// One sweep grid characterizes every (subbatch, accelerator) cell of
	// the search at the target model size: the size solve runs once, each
	// subbatch characterizes once, and sweep workers parallelize it all.
	grid := make([]sweep.Point, nb*na)
	runner, err := sweep.New(p.src, sweep.Spec{
		Domains:    []string{string(p.target.Domain)},
		Params:     []float64{p.target.Params},
		Subbatches: p.subbatches,
		Custom:     p.accs,
		CostModel:  p.model.Name(),
		Workers:    p.pool,
	})
	if err != nil {
		return nil, err
	}
	if err := runner.Run(ctx, func(pt sweep.Point) error {
		grid[pt.Seq] = pt
		return nil
	}); err != nil {
		return nil, err
	}

	cfg := p.config()
	esp := obs.StartSpan(ctx, "plan_evaluate", stagePlanEval)
	plans := make([]Plan, 0, p.Candidates())
	for ai, acc := range p.accs {
		for bi, b := range p.subbatches {
			pt := grid[bi*na+ai]
			for _, w := range p.workers {
				for _, st := range p.strategies {
					plans = append(plans, evaluate(cfg, acc, w, b, st,
						pt.Requirements, pt.StepSeconds, pt.Error))
				}
			}
		}
	}
	frontier := markFrontier(plans, p.priced)
	esp.End()
	return &Result{
		Target:     p.target,
		CostModel:  p.model.Name(),
		Objectives: p.Objectives(),
		Candidates: len(plans),
		Frontier:   frontier,
		Plans:      plans,
	}, nil
}

// evaluate composes one candidate from its characterization: the cost-
// model backend's compute time (priced on the candidate's accelerator by
// the sweep grid), strategy-scheduled communication, end-to-end totals,
// and feasibility annotations. It is shared (via the exported Evaluate)
// with the brute-force reference so equivalence is exact, not approximate.
func evaluate(cfg evalConfig, acc hw.Accelerator, workers int, subbatch float64,
	strategy Strategy, req *core.Requirements, computeSeconds float64, reqErr string) Plan {

	pl := Plan{
		Accelerator: acc.Name,
		Strategy:    strategy,
		Workers:     workers,
		Subbatch:    subbatch,
		GlobalBatch: subbatch * float64(workers),
		Devices:     workers,
	}
	if reqErr != "" || req == nil {
		if reqErr == "" {
			reqErr = "characterization missing"
		}
		pl.Infeasible = append(pl.Infeasible, "characterize: "+reqErr)
		return pl
	}

	compute := computeSeconds
	link := parallel.Interconnect{
		BandwidthBytes: acc.InterconnectBW,
		LatencySec:     parallel.DefaultInterconnect().LatencySec,
	}
	gradBytes := 4 * req.Params
	step := compute
	switch strategy {
	case StrategyOverlap:
		total := req.FwdFLOPs + req.BwdFLOPs
		fwdFrac := 1.0 / 3
		if total > 0 {
			fwdFrac = req.FwdFLOPs / total
		}
		ov, err := parallel.SimulateOverlap(parallel.OverlapConfig{
			ForwardTime:  compute * fwdFrac,
			BackwardTime: compute * (1 - fwdFrac),
			GradBytes:    gradBytes,
			Buckets:      cfg.buckets,
			Workers:      workers,
			Link:         link,
			Reduce:       parallel.RingAllReduceTime,
		})
		if err != nil {
			pl.Infeasible = append(pl.Infeasible, "overlap: "+err.Error())
			return pl
		}
		step = ov.StepTime
	default: // allreduce, sharded: serial ring collective after backprop
		step = compute + parallel.RingAllReduceTime(gradBytes, workers, link)
	}
	pl.ComputeSeconds = compute
	pl.StepSeconds = step
	pl.CommSeconds = step - compute
	pl.Utilization = acc.Utilization(req.FLOPsPerStep, step)

	mem := req.FootprintBytes
	if strategy == StrategySharded {
		mem = (req.FootprintBytes - req.PersistentBytes) + req.PersistentBytes/float64(workers)
	}
	pl.MemPerDeviceGB = mem / 1e9

	pl.Steps = cfg.target.TrainSamples * cfg.epochs / pl.GlobalBatch
	pl.TrainHours = pl.Steps * step / 3600
	if acc.Priced() {
		pl.CostUSD = pl.TrainHours * float64(workers) * acc.CostPerHourUSD
	}
	pl.EnergyKWh = pl.TrainHours * float64(workers) * acc.TDPWatts / 1000

	if subbatch < cfg.minSubbatch {
		pl.Infeasible = append(pl.Infeasible, subbatchReason(subbatch, cfg.minSubbatch))
	}
	if mem > acc.MemCapacity {
		pl.Infeasible = append(pl.Infeasible, memoryReason(mem/1e9, acc.Name, acc.MemCapacity/1e9))
	}
	if cfg.budgetHours > 0 && pl.TrainHours > cfg.budgetHours {
		pl.Infeasible = append(pl.Infeasible, hoursReason(pl.TrainHours, cfg.budgetHours))
	}
	if cfg.budgetUSD > 0 && acc.Priced() && pl.CostUSD > cfg.budgetUSD {
		pl.Infeasible = append(pl.Infeasible, costReason(pl.CostUSD, cfg.budgetUSD))
	}
	pl.Feasible = len(pl.Infeasible) == 0
	return pl
}

// The infeasibility reasons are built with strconv.AppendFloat, which
// writes the same bytes as fmt's %g (format 'g', precision -1) and %.Nf
// (format 'f', precision N) at a fraction of fmt.Sprintf's cost; evaluate
// runs once per candidate, serially after the sweep.

// subbatchReason is fmt.Sprintf("subbatch %g below minimum %g", subbatch, minimum).
func subbatchReason(subbatch, minimum float64) string {
	var buf [64]byte
	b := append(buf[:0], "subbatch "...)
	b = strconv.AppendFloat(b, subbatch, 'g', -1, 64)
	b = append(b, " below minimum "...)
	b = strconv.AppendFloat(b, minimum, 'g', -1, 64)
	return string(b)
}

// memoryReason is fmt.Sprintf("needs %.1f GB per device, %s has %.1f GB",
// needGB, acc, haveGB).
func memoryReason(needGB float64, acc string, haveGB float64) string {
	var buf [96]byte
	b := append(buf[:0], "needs "...)
	b = strconv.AppendFloat(b, needGB, 'f', 1, 64)
	b = append(b, " GB per device, "...)
	b = append(b, acc...)
	b = append(b, " has "...)
	b = strconv.AppendFloat(b, haveGB, 'f', 1, 64)
	b = append(b, " GB"...)
	return string(b)
}

// hoursReason is fmt.Sprintf("%.1f train hours over the %.1f hour budget",
// hours, budget).
func hoursReason(hours, budget float64) string {
	var buf [64]byte
	b := strconv.AppendFloat(buf[:0], hours, 'f', 1, 64)
	b = append(b, " train hours over the "...)
	b = strconv.AppendFloat(b, budget, 'f', 1, 64)
	b = append(b, " hour budget"...)
	return string(b)
}

// costReason is fmt.Sprintf("$%.0f over the $%.0f budget", usd, budget).
func costReason(usd, budget float64) string {
	var buf [64]byte
	b := append(buf[:0], '$')
	b = strconv.AppendFloat(b, usd, 'f', 0, 64)
	b = append(b, " over the $"...)
	b = strconv.AppendFloat(b, budget, 'f', 0, 64)
	b = append(b, " budget"...)
	return string(b)
}

// Evaluate composes one candidate exactly as Run does — exported so the
// brute-force reference (tests) and what-if callers share the arithmetic.
// req is the candidate subbatch's characterization (nil, with reqErr set,
// for failed cells) and computeSeconds its step time under the spec's
// cost-model backend on acc. The cfg knobs mirror Spec's defaults when
// zero.
func Evaluate(target Target, acc hw.Accelerator, workers int, subbatch float64,
	strategy Strategy, req *core.Requirements, computeSeconds float64, reqErr string,
	spec Spec) Plan {

	cfg := evalConfig{
		target:      target,
		epochs:      spec.Epochs,
		minSubbatch: spec.MinSubbatch,
		buckets:     spec.OverlapBuckets,
		budgetHours: spec.BudgetHours,
		budgetUSD:   spec.BudgetUSD,
	}
	if cfg.epochs == 0 {
		cfg.epochs = 1
	}
	if cfg.minSubbatch == 0 {
		cfg.minSubbatch = 1
	}
	if cfg.buckets == 0 {
		cfg.buckets = 16
	}
	return evaluate(cfg, acc, workers, subbatch, strategy, req, computeSeconds, reqErr)
}

// ---------------------------------------------------------------------------
// Pareto frontier

// dominates reports strict Pareto dominance of a over b on {train hours,
// devices[, cost]}: no worse everywhere, better somewhere.
func dominates(a, b *Plan, priced bool) bool {
	if a.TrainHours > b.TrainHours || a.Devices > b.Devices {
		return false
	}
	if priced && a.CostUSD > b.CostUSD {
		return false
	}
	return a.TrainHours < b.TrainHours || a.Devices < b.Devices ||
		(priced && a.CostUSD < b.CostUSD)
}

// outcomeOrder is the frontier's order: fastest first, ties broken by
// devices, cost, then identity fields so the order is fully deterministic.
func outcomeOrder(a, b *Plan) int {
	if c := cmp.Compare(a.TrainHours, b.TrainHours); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Devices, b.Devices); c != 0 {
		return c
	}
	if c := cmp.Compare(a.CostUSD, b.CostUSD); c != 0 {
		return c
	}
	if c := strings.Compare(a.Accelerator, b.Accelerator); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Strategy), string(b.Strategy)); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Subbatch, b.Subbatch); c != 0 {
		return c
	}
	return cmp.Compare(a.Workers, b.Workers)
}

// markFrontier sets OnFrontier on every feasible, non-dominated plan and
// returns copies of those plans in outcome order.
//
// One stable sort puts the feasible plans in outcome order, and one scan
// compares each plan only with the frontier members found before it. A
// dominator is no worse on hours and devices (and cost, when priced) and
// better on one of them, so it sorts strictly earlier; dominance is
// transitive, so every dominated plan has a dominator on the frontier. The
// scan costs O(n·f) comparisons for f frontier members, where testing every
// pair costs O(n²).
func markFrontier(plans []Plan, priced bool) []Plan {
	order := make([]*Plan, 0, len(plans))
	for i := range plans {
		if plans[i].Feasible {
			order = append(order, &plans[i])
		}
	}
	slices.SortStableFunc(order, outcomeOrder)
	var frontier []Plan
	for _, p := range order {
		p.OnFrontier = true
		for i := range frontier {
			if dominates(&frontier[i], p, priced) {
				p.OnFrontier = false
				break
			}
		}
		if p.OnFrontier {
			frontier = append(frontier, *p)
		}
	}
	return frontier
}
