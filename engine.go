package catamount

import (
	"context"
	"sync"

	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/lru"
	"catamount/internal/models"
	"catamount/internal/obs"
	"catamount/internal/parallel"
	"catamount/internal/scaling"
)

// Engine is a reusable analysis session. It memoizes each domain's built
// model together with its compiled program bundle, so repeated queries —
// table regenerations, figure sweeps, interactive what-ifs — pay the graph
// construction and expression compilation cost exactly once per domain.
//
// An Engine is safe for concurrent use. The zero value is not usable; call
// NewEngine.
type Engine struct {
	// domains holds one build-once analyzer entry per domain. domainsMu
	// guards only the map; builds run outside it.
	domainsMu sync.Mutex
	domains   map[Domain]*engineEntry

	// caseStudies memoizes the §6 parallelization plan per (accelerator,
	// cost-model backend): the case study is deterministic for a given
	// device and backend, and several figures and endpoints reuse it.
	// Keys combine the canonical backend name with the device fingerprint
	// (every projection-relevant field), so alias spellings share one
	// entry while two configs differing in any device field memoize
	// separately. maxCaseStudyEntries bounds it.
	caseStudies *lru.Cache[*caseStudyEntry]

	// plans memoizes capacity-planner searches by their canonical key
	// (plan.Planner.Key): a search is deterministic, and the serving layer
	// replays popular targets. maxPlanEntries bounds it.
	plans *lru.Cache[*planEntry]
}

// planEntry runs one planner search at most once, outside the memo lock.
type planEntry struct {
	once sync.Once
	res  *PlanResult
	err  error
}

// caseStudyEntry runs one accelerator's case study at most once, outside
// the memo lock.
type caseStudyEntry struct {
	once sync.Once
	cs   *CaseStudy
	err  error
}

// engineEntry builds one domain's analyzer at most once. Builds run outside
// the map lock, so a slow first build of one domain never blocks memoized
// lookups of another.
type engineEntry struct {
	once sync.Once
	a    *core.Analyzer
	err  error
}

// NewEngine creates an empty analysis session. Models are built and compiled
// lazily, on first use of each domain.
func NewEngine() *Engine {
	return &Engine{
		domains:     make(map[Domain]*engineEntry, len(models.AllDomains)),
		caseStudies: lru.New[*caseStudyEntry](maxCaseStudyEntries),
		plans:       lru.New[*planEntry](maxPlanEntries),
	}
}

// Analyzer returns the domain's compiled analysis session, building and
// compiling the model on first use.
func (e *Engine) Analyzer(d Domain) (*core.Analyzer, error) {
	e.domainsMu.Lock()
	ent, ok := e.domains[d]
	if !ok {
		ent = &engineEntry{}
		e.domains[d] = ent
	}
	e.domainsMu.Unlock()
	ent.once.Do(func() {
		// The build-and-compile is the engine's coldest stage: its latency
		// distribution (one observation per domain per process, from about
		// 5 ms for image to 0.3–0.4 s for speech on 2 vCPUs) separates
		// cold-start cost from steady-state serving in /metrics.
		defer obs.Span(context.Background(), "model_build").End()
		m, err := models.Build(d)
		if err != nil {
			ent.err = err
			return
		}
		ent.a, ent.err = core.NewAnalyzer(m)
	})
	return ent.a, ent.err
}

// CacheStats is a point-in-time view of the engine's memo layer: how many
// domain models are built and compiled, occupancy and capacity of the
// case-study and planner memos, and their lifetime eviction counts.
// The serving layer reports it in /healthz.
type CacheStats struct {
	Domains            int   `json:"domains"`
	CaseStudies        int   `json:"case_studies"`
	Plans              int   `json:"plans"`
	CaseStudyCapacity  int   `json:"case_study_capacity"`
	PlanCapacity       int   `json:"plan_capacity"`
	CaseStudyEvictions int64 `json:"case_study_evictions"`
	PlanEvictions      int64 `json:"plan_evictions"`
}

// CacheStats snapshots the engine's memo occupancy.
func (e *Engine) CacheStats() CacheStats {
	e.domainsMu.Lock()
	domains := len(e.domains)
	e.domainsMu.Unlock()
	return CacheStats{
		Domains:            domains,
		CaseStudies:        e.caseStudies.Len(),
		Plans:              e.plans.Len(),
		CaseStudyCapacity:  e.caseStudies.Capacity(),
		PlanCapacity:       e.plans.Capacity(),
		CaseStudyEvictions: e.caseStudies.Stats().Evictions,
		PlanEvictions:      e.plans.Stats().Evictions,
	}
}

// Model returns the engine's memoized model for a domain. The model is
// shared: treat it as read-only.
func (e *Engine) Model(d Domain) (*Model, error) {
	a, err := e.Analyzer(d)
	if err != nil {
		return nil, err
	}
	return a.Model, nil
}

// sessionAt resolves a domain's memoized analyzer and the size
// hyperparameter hitting the target parameter count — the shared front
// half of Analyze and Profile.
func (e *Engine) sessionAt(d Domain, paramCount float64) (*core.Analyzer, float64, error) {
	a, err := e.Analyzer(d)
	if err != nil {
		return nil, 0, err
	}
	size, err := a.SizeForParams(paramCount)
	if err != nil {
		return nil, 0, err
	}
	return a, size, nil
}

// Analyze characterizes a domain at a target parameter count and subbatch:
// AnalyzeOn on the paper's Table 4 device under the default cost model,
// without the estimate.
func (e *Engine) Analyze(d Domain, paramCount, subbatch float64) (Requirements, error) {
	req, _, err := e.AnalyzeOn(context.Background(), d, paramCount, subbatch, hw.TargetAccelerator(), nil)
	return req, err
}

// RooflineEstimate is one step-time backend's view of a characterization:
// the projected step seconds on a device, the achieved utilization, and
// which resource binds — labeled with the backend that produced it.
type RooflineEstimate = core.RooflineEstimate

// AnalyzeOn characterizes a domain at a target parameter count and
// subbatch, and projects the step time on a validated accelerator under
// the given cost-model backend (nil means the default graph-level
// Roofline). This is the shared path behind cmd/catamount and the
// catamountd /v1/analyze endpoint; ctx carries the caller's request trace
// into the characterization stage spans. The point is a one-row batch on
// the path every sweep row takes, so a point whose values overflow float64
// is an error naming the first such field.
func (e *Engine) AnalyzeOn(ctx context.Context, d Domain, paramCount, subbatch float64,
	acc Accelerator, cm costmodel.Model) (Requirements, RooflineEstimate, error) {

	if cm == nil {
		cm = costmodel.Default()
	}
	if err := acc.Validate(); err != nil {
		return Requirements{}, RooflineEstimate{}, err
	}
	a, size, err := e.sessionAt(d, paramCount)
	if err != nil {
		return Requirements{}, RooflineEstimate{}, err
	}
	return a.Point(ctx, size, subbatch, graph.PolicyMemGreedy, acc, cm)
}

// Profile computes the per-op-kind and per-group cost breakdown of a
// domain's training step.
func (e *Engine) Profile(d Domain, paramCount, subbatch float64) (*Profile, error) {
	a, size, err := e.sessionAt(d, paramCount)
	if err != nil {
		return nil, err
	}
	return a.Profile(size, subbatch)
}

// AsymptoticTable fits Table 2's first-order requirement models for every
// domain through the session's compiled models.
func (e *Engine) AsymptoticTable() ([]Asymptotics, error) {
	out := make([]Asymptotics, 0, len(models.AllDomains))
	for _, d := range models.AllDomains {
		a, err := e.Analyzer(d)
		if err != nil {
			return nil, err
		}
		asym, err := a.FitAsymptotics(core.AsymptoticFitTargets(d),
			[]float64{16, 64, 256}, a.Model.DefaultBatch, graph.PolicyMemGreedy)
		if err != nil {
			return nil, err
		}
		out = append(out, asym)
	}
	return out, nil
}

// FrontierTable computes Table 3 through the session's compiled models, on
// any validated accelerator — the Table 4 target, a catalog entry, or a
// custom device — with the default step-time backend.
func (e *Engine) FrontierTable(acc Accelerator) ([]Frontier, error) {
	return e.FrontierTableWith(acc, nil)
}

// FrontierTableWith is FrontierTable under a pluggable step-time backend
// (nil means the default graph-level Roofline): subbatch choice, step
// seconds, utilization and epoch days all route through the backend.
func (e *Engine) FrontierTableWith(acc Accelerator, cm costmodel.Model) ([]Frontier, error) {
	if cm == nil {
		cm = costmodel.Default()
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	projs, err := scaling.ProjectAll()
	if err != nil {
		return nil, err
	}
	out := make([]Frontier, 0, len(projs))
	for _, proj := range projs {
		a, err := e.Analyzer(proj.Spec.Domain)
		if err != nil {
			return nil, err
		}
		f, err := a.ProjectFrontierWith(proj, acc, cm, graph.PolicyMemGreedy)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// WordLMCaseStudy runs the §6 parallelization plan (Table 5) on the paper's
// Table 4 target, memoized.
func (e *Engine) WordLMCaseStudy() (*CaseStudy, error) {
	return e.WordLMCaseStudyOn(hw.TargetAccelerator())
}

// maxCaseStudyEntries bounds the per-accelerator memo: generous for the
// catalog plus interactive what-ifs, while long-tail custom devices (each
// retaining a full case-study result) evict least-recently-used entries
// instead of growing the memo without bound.
const maxCaseStudyEntries = 64

// WordLMCaseStudyOn replays the §6 parallelization plan on another
// accelerator with the default step-time backend, memoizing per device
// (LRU-bounded): the case study is deterministic and several figures and
// server endpoints reuse it.
func (e *Engine) WordLMCaseStudyOn(acc Accelerator) (*CaseStudy, error) {
	return e.WordLMCaseStudyOnWith(acc, nil)
}

// WordLMCaseStudyOnWith is WordLMCaseStudyOn under a pluggable step-time
// backend (nil means the default). Results memoize per (device, canonical
// backend name), so alias spellings of one backend share an entry, and
// concurrent callers for one (device, backend) pair share a single
// computation.
func (e *Engine) WordLMCaseStudyOnWith(acc Accelerator, cm costmodel.Model) (*CaseStudy, error) {
	if cm == nil {
		cm = costmodel.Default()
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	key := cm.Name() + "|" + acc.Fingerprint()
	ent := e.caseStudies.GetOrCreate(key, func() *caseStudyEntry {
		return &caseStudyEntry{}
	})
	ent.once.Do(func() {
		cfg := parallel.CaseStudyConfigFor(acc)
		cfg.Cost = cm
		ent.cs, ent.err = parallel.RunWordLMCaseStudy(cfg)
	})
	return ent.cs, ent.err
}

// FigureSweeps characterizes every domain across its Figure 7–10 parameter
// range at the paper's profiling subbatch sizes.
func (e *Engine) FigureSweeps() ([]SweepSeries, error) {
	out := make([]SweepSeries, 0, len(models.AllDomains))
	for _, d := range models.AllDomains {
		a, err := e.Analyzer(d)
		if err != nil {
			return nil, err
		}
		pts, err := a.SweepParams(core.DefaultSweepTargets(d), a.Model.DefaultBatch,
			graph.PolicyMemGreedy)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepSeries{Domain: d, Points: pts})
	}
	return out, nil
}

// Figure10 runs the footprint sweep with the 12 GB allocator simulation.
func (e *Engine) Figure10() ([]FootprintSeries, error) {
	out := make([]FootprintSeries, 0, len(models.AllDomains))
	for _, d := range models.AllDomains {
		a, err := e.Analyzer(d)
		if err != nil {
			return nil, err
		}
		pts, err := a.FootprintSweep(core.DefaultSweepTargets(d), a.Model.DefaultBatch,
			graph.PolicyMemGreedy)
		if err != nil {
			return nil, err
		}
		out = append(out, FootprintSeries{Domain: d, Points: pts})
	}
	return out, nil
}

// SubbatchSelection is the result of a §5.2.1 subbatch-policy sweep: the
// Figure 11 curve for one domain at a fixed parameter count on one
// accelerator, with the chosen point per policy.
type SubbatchSelection struct {
	Domain     Domain                      `json:"domain"`
	Params     float64                     `json:"params"`
	CostModel  string                      `json:"costmodel"`
	RidgePoint float64                     `json:"effective_ridge_point"`
	Points     []hw.SubbatchPoint          `json:"points"`
	Chosen     map[string]hw.SubbatchPoint `json:"chosen"`
}

// SubbatchSelectWith sweeps subbatch sizes (1 … 2^18) for a domain at a
// target parameter count on any validated accelerator and applies the
// given policies. params <= 0 selects the domain's accuracy-frontier model
// size (Table 1). Every sweep point's step time — and therefore the
// min-time-per-sample policy choice — routes through the step-time backend
// cm (nil means the default). This is the one sweep pipeline behind both
// Figure11 and the catamountd /v1/subbatch endpoint.
func (e *Engine) SubbatchSelectWith(d Domain, params float64, acc Accelerator,
	cm costmodel.Model, policies []hw.SubbatchPolicy, tol float64) (*SubbatchSelection, error) {

	if cm == nil {
		cm = costmodel.Default()
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	if params <= 0 {
		spec, err := scaling.SpecFor(d)
		if err != nil {
			return nil, err
		}
		proj, err := scaling.Project(spec)
		if err != nil {
			return nil, err
		}
		params = proj.TargetParams
	}
	a, err := e.Analyzer(d)
	if err != nil {
		return nil, err
	}
	size, err := a.SizeForParams(params)
	if err != nil {
		return nil, err
	}
	pts := a.SubbatchSweep(size, hw.PowersOfTwo(18), acc, cm)
	sel := &SubbatchSelection{
		Domain:     d,
		Params:     params,
		CostModel:  cm.Name(),
		RidgePoint: acc.EffectiveRidgePoint(),
		Points:     pts,
		Chosen:     make(map[string]hw.SubbatchPoint, len(policies)),
	}
	for _, pol := range policies {
		pt, err := hw.ChooseSubbatch(pts, acc, pol, tol)
		if err != nil {
			return nil, err
		}
		sel.Chosen[pol.String()] = pt
	}
	return sel, nil
}

// AllSubbatchPolicies lists the three §5.2.1 candidate policies.
func AllSubbatchPolicies() []hw.SubbatchPolicy {
	return []hw.SubbatchPolicy{hw.MinTimePerSample, hw.RidgePointMatch, hw.IntensitySaturation}
}

// Figure11 sweeps subbatch sizes for the frontier word LM on any validated
// accelerator with the default step-time backend.
func (e *Engine) Figure11(acc Accelerator) (*Figure11Data, error) {
	return e.Figure11With(acc, nil)
}

// Figure11With is Figure11 under a pluggable step-time backend (nil means
// the default).
func (e *Engine) Figure11With(acc Accelerator, cm costmodel.Model) (*Figure11Data, error) {
	sel, err := e.SubbatchSelectWith(WordLM, 0, acc, cm, AllSubbatchPolicies(), 0.05)
	if err != nil {
		return nil, err
	}
	return &Figure11Data{Points: sel.Points, RidgePoint: sel.RidgePoint, Chosen: sel.Chosen}, nil
}

// Figure12 sweeps data-parallel worker counts (1 → 16384) for the
// cache-aware case-study step on the Table 4 target.
func (e *Engine) Figure12() (*Figure12Data, error) {
	return e.Figure12On(hw.TargetAccelerator())
}

// Figure12On is the data-parallel scaling sweep replayed on another
// accelerator, reusing that device's memoized case study.
func (e *Engine) Figure12On(acc Accelerator) (*Figure12Data, error) {
	return e.Figure12OnWith(acc, nil)
}

// Figure12OnWith is Figure12On under a pluggable step-time backend (nil
// means the default), reusing the (device, backend) memoized case study:
// the per-worker step the sweep scales from is the case study's
// cache-aware step time under that backend.
func (e *Engine) Figure12OnWith(acc Accelerator, cm costmodel.Model) (*Figure12Data, error) {
	cs, err := e.WordLMCaseStudyOnWith(acc, cm)
	if err != nil {
		return nil, err
	}
	cfg := parallel.CaseStudyConfigFor(acc)
	dp := parallel.DataParallelConfig{
		StepTime:          cs.StepSeconds,
		StepFLOPs:         cs.StepFLOPs,
		GradientBytes:     4 * cs.Params,
		SubbatchPerWorker: cfg.Subbatch,
		EpochSamples:      cfg.EpochTokens / float64(cs.Model.SeqLen),
		Acc:               cfg.Acc,
		Link:              cfg.Link,
		Reduce:            parallel.RingAllReduceTime,
	}
	var workers []int
	for w := 1; w <= 16384; w *= 2 {
		workers = append(workers, w)
	}
	return &Figure12Data{Points: dp.Sweep(workers)}, nil
}

// defaultEngine backs the package-level convenience functions, so callers
// that stay on the simple API still share one compiled session per process.
var defaultEngine = NewEngine()

// DefaultEngine returns the shared session behind the package-level
// functions (Analyze, AsymptoticTable, FrontierTable, the figure
// generators). Long-lived callers may also hold their own NewEngine.
func DefaultEngine() *Engine { return defaultEngine }
