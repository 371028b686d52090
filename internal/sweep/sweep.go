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
// and workers take their evaluation buffers from each Analyzer's session
// pool, so steady-state points allocate almost nothing even though every
// caller builds a fresh Runner.
//
// Workers balance by cost, not by row count: each domain's rows split into
// contiguous tasks of near-equal cost (rows × graph nodes), dispatched in
// Seq order, so a heavy domain spreads over every worker while emission
// order — and each task's contiguous Seq range, which resume relies on —
// stays fixed.
//
// Failure policy is error-per-point, not fail-the-grid: an unreachable
// parameter target yields Points with Error set for that cell while the
// rest of the grid streams on. Cancelling the context stops the run.
package sweep

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"catamount/internal/api"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/obs"
)

// stageChunk times one task (a cost-bounded group of one domain's rows) —
// the sweep scheduler's unit of work. Resolved once; spans off it are
// allocation-free.
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

	// model is the resolved step-time backend; label is its canonical name
	// when the spec selected one explicitly (it tags emitted points), and
	// needsOps records whether cells must evaluate per-node costs.
	model    costmodel.Model
	label    string
	needsOps bool

	// stageStep times the batched step-time pricing, per backend
	// ("steptime_graph" / "steptime_perop"), resolved once per Runner so
	// the per-task span neither looks up nor builds the stage name.
	stageStep     *obs.Histogram
	stageStepName string
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
		d, err := models.ParseDomain(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
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

// maxRowsPerTask bounds one task's batch width: wide enough to amortize
// program dispatch across rows, small enough to keep batch buffers
// cache-sized.
const maxRowsPerTask = 32

// tasksPerWorker is how many tasks of equal cost the scheduler aims to give
// each worker. Tasks go out in Seq order, so the worker that finishes last
// idles the others for at most about one task: a quarter of a worker's
// share of the grid.
const tasksPerWorker = 4

// task is the scheduler's unit of work: grid rows [lo, hi) of one domain,
// characterized in one batched pass. Row (di*np + pi)*nb + bi is the cell
// of domain di, parameter target pi and subbatch bi, so a task owns the
// contiguous Seq range [lo*na, hi*na) over na accelerators.
type task struct{ lo, hi int }

// splitTasks splits the grid rows from row `from` onwards into tasks, in
// Seq order. nodes[di] is the cost of one row of domain di: its graph's
// node count, which the footprint simulation walks once per row. The
// budget is the split rows' total cost over tasksPerWorker × workers. Each
// domain's rows split into the fewest near-equal tasks of at most
// maxRowsPerTask rows that stay within it; a row over budget is a task of
// its own. So a heavy domain (speech: 47,745 nodes) or a plan search's 7
// subbatches spread over every worker.
func splitTasks(nodes []int, rowsPerDomain, from, workers int) []task {
	span := func(di int) (lo, hi int) {
		return max(di*rowsPerDomain, from), (di + 1) * rowsPerDomain
	}
	total := 0
	for di, n := range nodes {
		lo, hi := span(di)
		total += max(hi-lo, 0) * n
	}
	budget := total / (tasksPerWorker * max(workers, 1))
	var tasks []task
	for di, n := range nodes {
		lo, hi := span(di)
		if lo >= hi {
			continue
		}
		rows := min(max(budget/n, 1), maxRowsPerTask)
		k := (hi - lo + rows - 1) / rows
		for j := 0; j < k; j++ {
			tasks = append(tasks, task{lo + j*(hi-lo)/k, lo + (j+1)*(hi-lo)/k})
		}
	}
	return tasks
}

// solvedSize is one (domain, params) size solve, shared by every subbatch
// and accelerator of the pair.
type solvedSize struct {
	size float64
	err  error
}

// taskResult is one evaluated task: each of its rows characterized in one
// batched pass and priced on every accelerator with one batched step-time
// call each. Per-row entries are indexed in row order; steps and bounds
// hold valid rows only, accelerator-major, via validIdx.
type taskResult struct {
	subbatch []float64 // resolved per row (domain default applied)
	errs     []error   // per row; nil for characterized rows
	validIdx []int     // row -> index into reqs/steps/bounds columns, -1 if errored
	nValid   int
	reqs     []core.Requirements
	steps    []float64         // steps[ai*nValid + vi]
	bounds   []costmodel.Bound // same layout
}

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

// RunFrom is Run resuming mid-grid: it yields only points with
// Seq >= startSeq, and skips the size solves and characterizations of every
// row wholly before the resume point (a row holds one cell's points, one per
// accelerator), so restarting a checkpointed job does not re-pay for work
// already persisted. RunFrom(ctx, 0, yield) is exactly Run.
func (r *Runner) RunFrom(ctx context.Context, startSeq int, yield func(Point) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	np, nb, na := len(r.params), r.cellsPerPair(), len(r.accs)
	from := min(max(startSeq, 0)/na, r.Points()/na) // first row to evaluate

	// Phase 1, per domain with rows left (in parallel, so cold model builds
	// overlap): resolve its analyzer and solve each parameter target's size
	// once, shared by every subbatch and accelerator of the pair.
	analyzers := make([]*core.Analyzer, len(r.domains))
	sizes := make([]solvedSize, len(r.domains)*np)
	firstPair := from / nb
	firstDomain := firstPair / np
	r.forEach(ctx, len(r.domains)-firstDomain, func(k int) {
		di := firstDomain + k
		a, err := r.src.Analyzer(r.domains[di])
		if err == nil {
			analyzers[di] = a
		}
		for i := max(di*np, firstPair); i < (di+1)*np; i++ {
			if err != nil {
				sizes[i] = solvedSize{err: err}
				continue
			}
			size, serr := a.SizeForParams(r.params[i%np])
			sizes[i] = solvedSize{size: size, err: serr}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: evaluate cost-balanced tasks across the pool, emitting in
	// order. A row costs its domain's node count; a failed domain's rows
	// only carry its error.
	nodes := make([]int, len(r.domains))
	for di, a := range analyzers {
		nodes[di] = 1
		if a != nil {
			nodes[di] = max(len(a.Model.Graph.Nodes()), 1)
		}
	}
	tasks := splitTasks(nodes, np*nb, from, r.workers)
	results := make([]taskResult, len(tasks))

	workers := min(r.workers, len(tasks))
	var wg sync.WaitGroup
	next := make(chan int)
	completed := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				results[i] = r.evalTask(ctx, t, analyzers[t.lo/(np*nb)], sizes)
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
		for i := range tasks {
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

	ready := make([]bool, len(tasks))
	nextEmit := 0
	for idx := range completed {
		ready[idx] = true
		for nextEmit < len(tasks) && ready[nextEmit] {
			if err := r.emitTask(tasks[nextEmit], startSeq, &results[nextEmit], yield); err != nil {
				cancel()
				for range completed { // unblock workers until the pool drains
				}
				return err
			}
			results[nextEmit] = taskResult{} // release row storage early
			nextEmit++
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// evalTask characterizes one task's rows with a session from the domain's
// analyzer pool (a nil analyzer marks a failed domain, whose rows carry the
// error phase 1 recorded). Rows whose size solve failed carry their error;
// the rest run through one CharacterizeBatch and one StepTimesBatch per
// accelerator. The chunk span carries the caller's context, so a
// server-side sweep's request ID tags its trace lines.
func (r *Runner) evalTask(ctx context.Context, t task, a *core.Analyzer, sizes []solvedSize) taskResult {
	csp := obs.StartSpan(ctx, "sweep_chunk", stageChunk)
	ctx = csp.Attach(ctx)
	defer csp.End()
	nb := r.cellsPerPair()
	rows := t.hi - t.lo
	tr := taskResult{
		subbatch: make([]float64, rows),
		errs:     make([]error, rows),
		validIdx: make([]int, rows),
	}
	sizeCol := make([]float64, 0, rows)
	batchCol := make([]float64, 0, rows)
	for i := range tr.errs {
		row := t.lo + i
		if a != nil {
			tr.subbatch[i] = a.Model.DefaultBatch
			if len(r.subbatches) > 0 {
				tr.subbatch[i] = r.subbatches[row%nb]
			}
		}
		if sol := sizes[row/nb]; sol.err != nil {
			tr.errs[i] = sol.err
			tr.validIdx[i] = -1
		} else {
			tr.validIdx[i] = len(sizeCol)
			sizeCol = append(sizeCol, sol.size)
			batchCol = append(batchCol, tr.subbatch[i])
		}
	}
	tr.nValid = len(sizeCol)
	if tr.nValid == 0 {
		return tr
	}

	s := a.GetSession()
	defer a.PutSession(s)
	reqs, costs, err := s.CharacterizeBatch(ctx, sizeCol, batchCol, graph.PolicyMemGreedy, r.needsOps, nil)
	if err != nil {
		for i := range tr.errs {
			if tr.validIdx[i] >= 0 {
				tr.errs[i] = err
				tr.validIdx[i] = -1
			}
		}
		tr.nValid = 0
		return tr
	}
	tr.reqs = reqs
	// A row whose values overflowed could not be encoded: like a failed
	// size solve, it becomes an error on each of its points. Its column
	// stays in the batch below, unread.
	for i, vi := range tr.validIdx {
		if vi < 0 {
			continue
		}
		if err := core.NonFinite(&reqs[vi]); err != nil {
			tr.errs[i] = fmt.Errorf("sweep: %w", err)
			tr.validIdx[i] = -1
		}
	}
	// Price every accelerator off the shared cost batch; the step times and
	// bounds are copied out here because the batch aliases session buffers.
	tr.steps = make([]float64, len(r.accs)*tr.nValid)
	tr.bounds = make([]costmodel.Bound, len(r.accs)*tr.nValid)
	ssp := obs.StartSpan(ctx, r.stageStepName, r.stageStep)
	for ai, acc := range r.accs {
		seg := tr.steps[ai*tr.nValid : (ai+1)*tr.nValid]
		r.model.StepTimesBatch(acc, costs, seg, tr.bounds[ai*tr.nValid:(ai+1)*tr.nValid])
	}
	ssp.End()
	return tr
}

// emitTask expands one evaluated task into its per-point stream, in
// (param, subbatch, accelerator) order. The Requirements are
// accelerator-independent; only the Roofline numbers differ per device.
// Points with Seq < startSeq are suppressed (a resumed run's first row).
func (r *Runner) emitTask(t task, startSeq int, tr *taskResult, yield func(Point) error) error {
	np, nb, na := len(r.params), r.cellsPerPair(), len(r.accs)
	for i := range tr.errs {
		row := t.lo + i
		for ai, acc := range r.accs {
			seq := row*na + ai
			if seq < startSeq {
				continue
			}
			p := Point{
				Seq:         seq,
				Domain:      r.domains[row/(np*nb)],
				Accelerator: acc.Name,
				ParamTarget: r.params[row/nb%np],
				Subbatch:    tr.subbatch[i],
				CostModel:   r.label,
			}
			if tr.errs[i] != nil {
				p.Error = tr.errs[i].Error()
			} else {
				vi := tr.validIdx[i]
				step := tr.steps[ai*tr.nValid+vi]
				util := acc.Utilization(tr.reqs[vi].FLOPsPerStep, step)
				if err := cmp.Or(core.NonFiniteField("step_seconds", step),
					core.NonFiniteField("utilization", util)); err != nil {
					p.Error = "sweep: " + err.Error()
				} else {
					req := tr.reqs[vi]
					p.Requirements = &req
					p.StepSeconds = step
					p.Utilization = util
					p.ComputeBound = tr.bounds[ai*tr.nValid+vi] == costmodel.BoundCompute
					p.FitsMemory = acc.Fits(req.FootprintBytes)
				}
			}
			if err := yield(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEach runs fn(i) for i in [0, n) across the runner's workers. fn
// records its own results; the loop stops dispatching when ctx is
// cancelled.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int)) {
	workers := min(r.workers, n)
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
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

func positiveFinite(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}
