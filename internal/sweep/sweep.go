// Package sweep is the bulk grid evaluator: the paper's core artifacts
// (Tables 2–5, Figures 11–12) are all grids — domain × parameter count ×
// subbatch × accelerator — and this package turns "thousands of one-point
// calls" into one streaming evaluation over a shared compiled session.
//
// A Spec describes the grid; a Runner validates it once and then streams
// Points in a deterministic order (domain-major, then parameter target,
// then subbatch, then accelerator) regardless of worker scheduling. Costs
// are amortized across the whole grid: each domain's model is built and
// compiled once by the backing session source, each unique (domain, params)
// size solve runs once and is shared by every subbatch of the cell, each
// (domain, params, subbatch) characterization — the expensive part, with
// its footprint traversal — runs once and is shared by every accelerator,
// and workers reuse per-goroutine evaluation buffers so steady-state points
// allocate almost nothing.
//
// Failure policy is error-per-point, not fail-the-grid: an unreachable
// parameter target yields Points with Error set for that cell while the
// rest of the grid streams on. Cancelling the context stops the run.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"catamount/internal/api"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/obs"
)

// stageChunk times one (domain, param-chunk) task — the sweep scheduler's
// unit of work. Resolved once; spans off it are allocation-free.
var stageChunk = obs.Stage("sweep_chunk")

// SessionSource resolves a domain's compiled analysis session, building it
// on first use. catamount.Engine satisfies this.
type SessionSource interface {
	Analyzer(models.Domain) (*core.Analyzer, error)
}

// Spec describes a sweep grid. It is an alias of the versioned wire type
// in internal/api — the canonical JSON schema of POST /v1/sweep, the sweep
// half of POST /v1/jobs, and the flag schema of cmd/sweep — so the server,
// the CLIs, and this evaluator provably share one contract.
type Spec = api.SweepSpec

// Point is one grid evaluation result. Requirements is nil when the point
// failed, with Error carrying the cause; the grid streams on either way.
// Seq is the point's position in the deterministic output order.
type Point struct {
	Seq         int           `json:"seq"`
	Domain      models.Domain `json:"domain"`
	Accelerator string        `json:"accelerator"`
	ParamTarget float64       `json:"param_target"`
	Subbatch    float64       `json:"subbatch"`
	// CostModel labels the step-time backend when the spec named one
	// explicitly; it is omitted for default-backend grids so existing
	// consumers (and pinned outputs) see unchanged rows.
	CostModel string `json:"costmodel,omitempty"`

	*core.Requirements

	// StepSeconds/Utilization/ComputeBound are the Roofline estimates on
	// this point's accelerator; FitsMemory compares the footprint against
	// its capacity. The booleans never use omitempty: their false values
	// are the headline results (memory-bound, does not fit), and clients
	// filter on them directly. They are meaningful only when Requirements
	// is present.
	StepSeconds  float64 `json:"step_seconds,omitempty"`
	Utilization  float64 `json:"utilization,omitempty"`
	ComputeBound bool    `json:"compute_bound"`
	FitsMemory   bool    `json:"fits_memory"`

	Error string `json:"error,omitempty"`
}

// Runner is a validated sweep grid bound to a session source. Create with
// New; Run may be called any number of times.
type Runner struct {
	src        SessionSource
	domains    []models.Domain
	params     []float64
	subbatches []float64 // empty: each domain's DefaultBatch
	accs       []hw.Accelerator
	workers    int

	// model is the resolved step-time backend; batchModel is its batched
	// evaluator; label is its canonical name when the spec selected one
	// explicitly (it tags emitted points), and needsOps records whether
	// cells must evaluate per-node costs.
	model      costmodel.Model
	batchModel costmodel.BatchModel
	label      string
	needsOps   bool

	// stageStep times the batched step-time pricing, per backend
	// ("steptime_graph" / "steptime_perop"), resolved once per Runner so
	// the per-task span neither looks up nor builds the stage name.
	stageStep     *obs.Histogram
	stageStepName string

	// pool recycles per-worker session maps across Run calls, so repeated
	// runs (the server, the benchmark) keep their evaluation buffers.
	pool sync.Pool
}

// CostModel returns the runner's resolved step-time backend.
func (r *Runner) CostModel() costmodel.Model { return r.model }

// New validates a spec against the domain registry and accelerator catalog
// and resolves the grid. Every error out of New is a spec problem (the
// server maps them to 400); errors out of Run are per-point or
// cancellation.
func New(src SessionSource, spec Spec) (*Runner, error) {
	r := &Runner{src: src}

	if len(spec.Domains) == 0 {
		r.domains = append(r.domains, models.AllDomains...)
	}
	for _, name := range spec.Domains {
		d, err := parseDomain(name)
		if err != nil {
			return nil, err
		}
		r.domains = append(r.domains, d)
	}

	switch {
	case len(spec.Params) > 0:
		if spec.ParamMin != 0 || spec.ParamMax != 0 || spec.ParamSteps != 0 {
			return nil, fmt.Errorf("sweep: params and param_min/param_max/param_steps are mutually exclusive")
		}
		for _, p := range spec.Params {
			if !positiveFinite(p) {
				return nil, fmt.Errorf("sweep: params must be positive finite, got %v", p)
			}
		}
		r.params = append(r.params, spec.Params...)
	case spec.ParamMin > 0 || spec.ParamMax > 0 || spec.ParamSteps > 0:
		if !positiveFinite(spec.ParamMin) || !positiveFinite(spec.ParamMax) || spec.ParamMax <= spec.ParamMin {
			return nil, fmt.Errorf("sweep: param range needs 0 < param_min < param_max, got [%v, %v]",
				spec.ParamMin, spec.ParamMax)
		}
		if spec.ParamSteps < 2 {
			return nil, fmt.Errorf("sweep: param range needs param_steps >= 2, got %d", spec.ParamSteps)
		}
		r.params = core.LogSpace(spec.ParamMin, spec.ParamMax, spec.ParamSteps)
	default:
		return nil, fmt.Errorf("sweep: spec needs params or a param_min/param_max/param_steps range")
	}

	for _, b := range spec.Subbatches {
		if !positiveFinite(b) {
			return nil, fmt.Errorf("sweep: subbatches must be positive finite, got %v", b)
		}
		r.subbatches = append(r.subbatches, b)
	}

	for _, name := range spec.Accelerators {
		acc, err := hw.Lookup(name)
		if err != nil {
			return nil, err
		}
		r.accs = append(r.accs, acc)
	}
	for _, acc := range spec.Custom {
		if acc.Name == "" {
			return nil, fmt.Errorf("sweep: custom accelerator missing \"name\"")
		}
		if err := acc.Validate(); err != nil {
			return nil, err
		}
		r.accs = append(r.accs, acc)
	}
	if len(r.accs) == 0 {
		r.accs = []hw.Accelerator{hw.TargetAccelerator()}
	}

	cm, err := costmodel.Parse(spec.CostModel)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	r.model = cm
	r.batchModel = costmodel.AsBatch(cm)
	r.needsOps = costmodel.NeedsOpCosts(cm)
	r.stageStepName = "steptime_" + cm.Name()
	r.stageStep = obs.Stage(r.stageStepName)
	if spec.CostModel != "" {
		r.label = cm.Name()
	}

	r.workers = spec.Workers
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if lim := 4 * runtime.GOMAXPROCS(0); r.workers > lim {
		r.workers = lim
	}
	return r, nil
}

// Points returns the grid size: the exact number of Points a Run will
// yield.
func (r *Runner) Points() int {
	return len(r.domains) * len(r.params) * r.cellsPerPair() * len(r.accs)
}

// cellsPerPair is the subbatch multiplicity of one (domain, params) pair.
func (r *Runner) cellsPerPair() int {
	if len(r.subbatches) == 0 {
		return 1
	}
	return len(r.subbatches)
}

// maxRowsPerTask bounds one task's batch width: all subbatches of a chunk
// of parameter targets for one domain. Wide enough to amortize program
// dispatch across rows, small enough to keep several tasks in flight.
const maxRowsPerTask = 32

// solvedSize is one (domain, params) size solve, shared by every subbatch
// and accelerator of the pair.
type solvedSize struct {
	size float64
	err  error
}

// taskResult is one evaluated (domain, param-chunk) row batch: every
// subbatch of every chunk parameter, characterized in one batched pass and
// priced on every accelerator with one batched step-time call each.
// Per-row entries are indexed row-major ((param, subbatch) order); steps
// and bounds hold valid rows only, accelerator-major, via validIdx.
type taskResult struct {
	subbatch []float64 // resolved per row (domain default applied)
	errs     []error   // per row; nil for characterized rows
	validIdx []int     // row -> index into reqs/steps/bounds columns, -1 if errored
	nValid   int
	reqs     []core.Requirements
	steps    []float64         // steps[ai*nValid + vi]
	bounds   []costmodel.Bound // same layout
}

// sessions lazily materializes one evaluation scratchpad per domain for a
// single worker goroutine.
type sessions struct {
	src SessionSource
	m   map[models.Domain]*core.Session
}

func (s *sessions) at(d models.Domain) (*core.Session, error) {
	if ses, ok := s.m[d]; ok {
		return ses, nil
	}
	a, err := s.src.Analyzer(d)
	if err != nil {
		return nil, err
	}
	ses := a.NewSession()
	s.m[d] = ses
	return ses, nil
}

// getSessions hands a worker a session map, recycled across Run calls so
// warm runs keep their compiled-evaluation buffers.
func (r *Runner) getSessions() *sessions {
	if v := r.pool.Get(); v != nil {
		return v.(*sessions)
	}
	return &sessions{src: r.src, m: make(map[models.Domain]*core.Session)}
}

func (r *Runner) putSessions(s *sessions) { r.pool.Put(s) }

// Run evaluates the grid, streaming every point through yield in
// deterministic order (domain-major, then params, then subbatch, then
// accelerator; Point.Seq numbers that order from 0). Workers evaluate
// cells concurrently; a reorder buffer keeps emission in sequence. Run
// returns the yield error if yield fails, ctx.Err() on cancellation, and
// nil otherwise — per-point failures are carried in Point.Error, never
// returned.
func (r *Runner) Run(ctx context.Context, yield func(Point) error) error {
	return r.RunFrom(ctx, 0, yield)
}

// taskSeqEnd returns one past the last Seq that task t emits. Because the
// output order is deterministic, each task owns a contiguous Seq range;
// this is what makes checkpointed resume exact.
func (r *Runner) taskSeqEnd(t, np, nb, chunkLen, tasksPerDomain int) int {
	di := t / tasksPerDomain
	hi := (t%tasksPerDomain)*chunkLen + chunkLen
	if hi > np {
		hi = np
	}
	return (di*np + hi) * nb * len(r.accs)
}

// RunFrom is Run resuming mid-grid: it yields only points with
// Seq >= startSeq, and — because the deterministic order assigns each
// batched task a contiguous Seq range — skips the evaluation of every task
// wholly before the resume point, so restarting a checkpointed job does
// not re-pay for work already persisted. RunFrom(ctx, 0, yield) is exactly
// Run.
func (r *Runner) RunFrom(ctx context.Context, startSeq int, yield func(Point) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if startSeq < 0 {
		startSeq = 0
	}

	np, nb := len(r.params), r.cellsPerPair()

	// Task geometry first: the resume point is expressed in tasks, and
	// phase 1 wants to skip size solves no surviving task will read.
	chunkLen := maxRowsPerTask / nb
	if chunkLen < 1 {
		chunkLen = 1
	}
	if chunkLen > np {
		chunkLen = np
	}
	tasksPerDomain := (np + chunkLen - 1) / chunkLen
	numTasks := len(r.domains) * tasksPerDomain

	// Phase 1: solve each unique (domain, params) size once, shared by
	// every subbatch and accelerator of the pair. Pairs belonging entirely
	// to skipped tasks are left unsolved.
	sizes := make([]solvedSize, len(r.domains)*np)
	r.forEach(ctx, len(sizes), func(i int, ses *sessions) {
		if startSeq > 0 {
			task := (i/np)*tasksPerDomain + (i%np)/chunkLen
			if r.taskSeqEnd(task, np, nb, chunkLen, tasksPerDomain) <= startSeq {
				return
			}
		}
		s, err := ses.at(r.domains[i/np])
		if err != nil {
			sizes[i] = solvedSize{err: err}
			return
		}
		size, err := s.SizeForParams(r.params[i%np])
		sizes[i] = solvedSize{size: size, err: err}
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: evaluate row-batched tasks across the pool, emitting in
	// order. One task is every subbatch of a chunk of parameter targets for
	// one domain — a whole grid row fed through a single batched
	// characterization and one batched step-time call per accelerator.
	results := make([]taskResult, numTasks)
	evalTask := func(t int, ses *sessions) {
		if r.taskSeqEnd(t, np, nb, chunkLen, tasksPerDomain) <= startSeq {
			return // wholly before the resume point; emits nothing
		}
		results[t] = r.evalTask(ctx, t, np, nb, chunkLen, tasksPerDomain, sizes, ses)
	}

	workers := r.workers
	if workers > numTasks {
		workers = numTasks
	}
	var wg sync.WaitGroup
	next := make(chan int)
	completed := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := r.getSessions()
			defer r.putSessions(ses)
			for i := range next {
				evalTask(i, ses)
				select {
				case completed <- i:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(next)
		for i := 0; i < numTasks; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(completed)
	}()

	ready := make([]bool, numTasks)
	nextEmit := 0
	for idx := range completed {
		ready[idx] = true
		for nextEmit < numTasks && ready[nextEmit] {
			if err := r.emitTask(nextEmit, np, nb, chunkLen, tasksPerDomain, startSeq, &results[nextEmit], yield); err != nil {
				cancel()
				for range completed { // unblock workers until the pool drains
				}
				return err
			}
			ready[nextEmit] = false
			results[nextEmit] = taskResult{} // release row storage early
			nextEmit++
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// evalTask characterizes one (domain, param-chunk) row batch. Rows whose
// size solve failed carry their error; the rest run through one
// CharacterizeBatch and one StepTimesBatch per accelerator. The chunk span
// carries the caller's context, so a server-side sweep's request ID tags
// its trace lines.
func (r *Runner) evalTask(ctx context.Context, t, np, nb, chunkLen, tasksPerDomain int,
	sizes []solvedSize, ses *sessions) taskResult {

	csp := obs.StartSpan(ctx, "sweep_chunk", stageChunk)
	ctx = csp.Attach(ctx)
	defer csp.End()
	di := t / tasksPerDomain
	lo := (t % tasksPerDomain) * chunkLen
	hi := lo + chunkLen
	if hi > np {
		hi = np
	}
	rows := (hi - lo) * nb
	tr := taskResult{
		subbatch: make([]float64, rows),
		errs:     make([]error, rows),
		validIdx: make([]int, rows),
	}

	s, err := ses.at(r.domains[di])
	if err != nil {
		for row := range tr.errs {
			tr.errs[row] = err
			tr.validIdx[row] = -1
		}
		return tr
	}

	sizeCol := make([]float64, 0, rows)
	batchCol := make([]float64, 0, rows)
	for pi := lo; pi < hi; pi++ {
		sol := sizes[di*np+pi]
		for bi := 0; bi < nb; bi++ {
			row := (pi-lo)*nb + bi
			b := s.Analyzer().Model.DefaultBatch
			if len(r.subbatches) > 0 {
				b = r.subbatches[bi]
			}
			tr.subbatch[row] = b
			if sol.err != nil {
				tr.errs[row] = sol.err
				tr.validIdx[row] = -1
				continue
			}
			tr.validIdx[row] = len(sizeCol)
			sizeCol = append(sizeCol, sol.size)
			batchCol = append(batchCol, b)
		}
	}
	tr.nValid = len(sizeCol)
	if tr.nValid == 0 {
		return tr
	}

	reqs, costs, err := s.CharacterizeBatch(ctx, sizeCol, batchCol, graph.PolicyMemGreedy, r.needsOps, nil)
	if err != nil {
		for row := range tr.errs {
			if tr.validIdx[row] >= 0 {
				tr.errs[row] = err
				tr.validIdx[row] = -1
			}
		}
		tr.nValid = 0
		return tr
	}
	tr.reqs = reqs
	// Price every accelerator off the shared cost batch; the step times and
	// bounds are copied out here because the batch aliases session buffers.
	tr.steps = make([]float64, len(r.accs)*tr.nValid)
	tr.bounds = make([]costmodel.Bound, len(r.accs)*tr.nValid)
	ssp := obs.StartSpan(ctx, r.stageStepName, r.stageStep)
	for ai, acc := range r.accs {
		seg := tr.steps[ai*tr.nValid : (ai+1)*tr.nValid]
		r.batchModel.StepTimesBatch(acc, costs, seg, tr.bounds[ai*tr.nValid:(ai+1)*tr.nValid])
	}
	ssp.End()
	return tr
}

// emitTask expands one evaluated row batch into its per-point stream, in
// (param, subbatch, accelerator) order. The Requirements are
// accelerator-independent; only the Roofline numbers differ per device.
// Points with Seq < startSeq are suppressed (resumed runs); a zero-value
// taskResult marks a task skipped entirely.
func (r *Runner) emitTask(t, np, nb, chunkLen, tasksPerDomain, startSeq int,
	tr *taskResult, yield func(Point) error) error {

	if tr.subbatch == nil {
		return nil
	}
	di := t / tasksPerDomain
	lo := (t % tasksPerDomain) * chunkLen
	hi := lo + chunkLen
	if hi > np {
		hi = np
	}
	for pi := lo; pi < hi; pi++ {
		for bi := 0; bi < nb; bi++ {
			row := (pi-lo)*nb + bi
			cell := (di*np+pi)*nb + bi
			if (cell+1)*len(r.accs) <= startSeq {
				continue
			}
			for ai, acc := range r.accs {
				if cell*len(r.accs)+ai < startSeq {
					continue
				}
				p := Point{
					Seq:         cell*len(r.accs) + ai,
					Domain:      r.domains[di],
					Accelerator: acc.Name,
					ParamTarget: r.params[pi],
					Subbatch:    tr.subbatch[row],
					CostModel:   r.label,
				}
				if tr.errs[row] != nil {
					p.Error = tr.errs[row].Error()
				} else {
					vi := tr.validIdx[row]
					req := tr.reqs[vi]
					p.Requirements = &req
					p.StepSeconds = tr.steps[ai*tr.nValid+vi]
					p.Utilization = acc.Utilization(req.FLOPsPerStep, p.StepSeconds)
					p.ComputeBound = tr.bounds[ai*tr.nValid+vi] == costmodel.BoundCompute
					p.FitsMemory = acc.Fits(req.FootprintBytes)
				}
				if err := yield(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// forEach runs fn(i) for i in [0, n) across the runner's worker pool, each
// worker holding its own session map. fn records its own results; the loop
// stops dispatching when ctx is cancelled.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int, ses *sessions)) {
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ses := r.getSessions()
		defer r.putSessions(ses)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i, ses)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := r.getSessions()
			defer r.putSessions(ses)
			for i := range next {
				fn(i, ses)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			i = n
		}
	}
	close(next)
	wg.Wait()
}

func parseDomain(name string) (models.Domain, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, d := range models.AllDomains {
		if string(d) == key {
			return d, nil
		}
	}
	known := make([]string, 0, len(models.AllDomains))
	for _, d := range models.AllDomains {
		known = append(known, string(d))
	}
	return "", fmt.Errorf("sweep: unknown domain %q (one of: %s)", name, strings.Join(known, ", "))
}

func positiveFinite(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}
