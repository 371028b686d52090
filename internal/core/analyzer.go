package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"catamount/internal/costmodel"
	"catamount/internal/fit"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/obs"
	"catamount/internal/ops"
	"catamount/internal/scaling"
	"catamount/internal/symbolic"
)

// Stage histograms are resolved once at package init so hot-path spans
// (per-point characterizations, per-task batches) cost two clock reads and
// one lock-free Observe — nothing else. All record into obs.Default under
// catamount_stage_duration_seconds{stage="..."}.
var (
	stageCharacterize      = obs.Stage("characterize")
	stageCharacterizeBatch = obs.Stage("characterize_batch")
	stageFootprint         = obs.Stage("footprint")
)

// Analyzer is a compiled characterization session for one model. It is built
// once — deriving and compiling every cost expression of the model's graph —
// and then serves any number of evaluation points without re-deriving or
// tree-walking anything: each point is "write two slots, run programs".
//
// An Analyzer's compiled state is immutable after construction, and the
// Analyzer is safe for concurrent use; sweep methods fan their points out
// across a bounded worker pool.
type Analyzer struct {
	// sessions recycles evaluation scratchpads (GetSession/PutSession)
	// across every caller of this model: grid sweeps, parallel fan-outs and
	// scalar Characterize.
	sessions sync.Pool

	Model *models.Model
	// Compiled is the model graph's precompiled program bundle.
	Compiled *graph.Compiled

	sizeSlot, batchSlot int

	// fwdFLOPs / bwdFLOPs split the step; the graph-level totals (params,
	// FLOPs, bytes, IO) come straight from Compiled.
	fwdFLOPs, bwdFLOPs *symbolic.Program

	// opKinds caches each node's op kind in Nodes() order, so building a
	// per-op cost vector never re-walks the graph. distinctOps holds one
	// entry per distinct (efficiency class, FLOP program, byte program)
	// triple, and nodeOp each node's index into it, so batched per-op
	// pricing runs once per distinct op.
	opKinds     []string
	distinctOps []costmodel.DistinctOp
	nodeOp      []int32
}

// NewAnalyzer compiles a model into an analysis session. It fails if the
// graph's cost expressions reference symbols beyond the model's size and
// batch knobs, since sweeps bind exactly those two.
func NewAnalyzer(m *models.Model) (*Analyzer, error) {
	c := graph.Compile(m.Graph)
	for _, name := range c.Syms.Names() {
		if name != m.SizeSymbol && name != m.BatchSymbol {
			return nil, fmt.Errorf("core: model %s graph uses symbol %q beyond size %q and batch %q",
				m.Name, name, m.SizeSymbol, m.BatchSymbol)
		}
	}
	a := &Analyzer{
		Model:     m,
		Compiled:  c,
		sizeSlot:  c.Syms.Intern(m.SizeSymbol),
		batchSlot: c.Syms.Intern(m.BatchSymbol),
	}
	fwd, bwd := ops.ForwardBackwardFLOPs(m.Graph)
	a.fwdFLOPs = symbolic.Compile(fwd, c.Syms)
	a.bwdFLOPs = symbolic.Compile(bwd, c.Syms)
	nodes := m.Graph.Nodes()
	flopIx, byteIx := c.CostIndexes()
	a.opKinds = make([]string, len(nodes))
	a.nodeOp = make([]int32, len(nodes))
	distinct := make(map[costmodel.DistinctOp]int32)
	for i, n := range nodes {
		a.opKinds[i] = n.Op.Kind()
		op := costmodel.DistinctOp{Class: costmodel.ClassFor(a.opKinds[i]), FLOPIx: flopIx[i], ByteIx: byteIx[i]}
		k, ok := distinct[op]
		if !ok {
			k = int32(len(a.distinctOps))
			distinct[op] = k
			a.distinctOps = append(a.distinctOps, op)
		}
		a.nodeOp[i] = k
	}
	return a, nil
}

// newSlots allocates a slot buffer for one evaluating goroutine.
func (a *Analyzer) newSlots() []float64 { return a.Compiled.Syms.NewSlots() }

func (a *Analyzer) bind(slots []float64, size, batch float64) {
	slots[a.sizeSlot] = size
	slots[a.batchSlot] = batch
}

// Params evaluates the trainable parameter count at the given size.
func (a *Analyzer) Params(size float64) float64 {
	slots := a.newSlots()
	a.bind(slots, size, 1)
	return a.Compiled.ParamCount.Eval(slots)
}

// SizeForParams inverts Params with the compiled parameter program: the
// (continuous) size hyperparameter whose parameter count hits target.
func (a *Analyzer) SizeForParams(target float64) (float64, error) {
	size, err := a.sizeForParamsWith(a.newSlots(), target)
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", a.Model.Name, err)
	}
	return size, nil
}

// Characterize evaluates one (size, batch) point, including the footprint
// traversal, entirely through compiled programs. ctx threads the caller's
// trace (if any) into the stage spans; pass context.Background() outside a
// request.
func (a *Analyzer) Characterize(ctx context.Context, size, batch float64, policy graph.SchedulePolicy) (Requirements, error) {
	s := a.GetSession()
	defer a.PutSession(s)
	slots := s.slots
	sp := obs.StartSpan(ctx, "characterize", stageCharacterize)
	ctx = sp.Attach(ctx)
	defer sp.End()
	a.bind(slots, size, batch)
	r := Requirements{
		Domain: a.Model.Domain,
		Name:   a.Model.Name,
		Size:   size,
		Batch:  batch,

		Params:       a.Compiled.ParamCount.Eval(slots),
		FLOPsPerStep: a.Compiled.TotalFLOPs.Eval(slots),
		BytesPerStep: a.Compiled.TotalBytes.Eval(slots),
		IOBytes:      a.Compiled.IO.Eval(slots),
		FwdFLOPs:     a.fwdFLOPs.Eval(slots),
		BwdFLOPs:     a.bwdFLOPs.Eval(slots),
	}
	r.FLOPsPerSample = r.FLOPsPerStep / batch
	if r.BytesPerStep > 0 {
		r.Intensity = r.FLOPsPerStep / r.BytesPerStep
	}
	fsp := obs.StartSpan(ctx, "footprint", stageFootprint)
	res, err := a.Compiled.FootprintInto(slots, policy, &s.fp)
	fsp.End()
	if err != nil {
		return r, err
	}
	r.FootprintBytes = res.PeakBytes
	r.PersistentBytes = res.PersistentBytes
	return r, nil
}

// Session is a single-goroutine evaluation scratchpad over an Analyzer: one
// slot buffer, footprint scratch, and the batched-evaluation buffers,
// reused across any number of points so a tight evaluation loop (grid
// sweeps, serving workers) allocates nothing per point. Not safe for
// concurrent use; each worker holds its own, taken from the Analyzer's pool.
type Session struct {
	a     *Analyzer
	slots []float64
	fp    graph.FootprintScratch

	// Batched-path state, allocated lazily on first CharacterizeBatch.
	batch *symbolic.Batch
	eval  symbolic.BatchScratch
	vals  struct {
		params, flops, bytes, io, fwd, bwd []float64
		tensUniq, nodeUniq                 []float64
	}
	costs costmodel.CostsBatch
	ops   costmodel.OpsBatch
}

// GetSession takes an evaluation scratchpad for one goroutine from the
// Analyzer's pool, allocating one if the pool is empty, so warm callers
// keep their buffers across calls (a fresh speech session allocates
// 1.1 MB). Hand it back with PutSession once nothing holds a pointer into
// it.
func (a *Analyzer) GetSession() *Session {
	if s, ok := a.sessions.Get().(*Session); ok {
		return s
	}
	return &Session{a: a, slots: a.newSlots()}
}

// PutSession returns a scratchpad taken with GetSession to the pool.
func (a *Analyzer) PutSession(s *Session) { a.sessions.Put(s) }

// CharacterizeBatch evaluates a whole batch of (size, batch) points in one
// structure-of-arrays pass: every compiled total runs once over all rows,
// the unique tensor-byte programs feed per-row footprint simulations, and —
// when withOps is set — the unique node-cost programs fill a shared per-op
// matrix for batched step-time backends. Row i of the returned slice is
// bit-for-bit identical to Analyzer.Characterize(sizes[i], batches[i], policy).
//
// reqs is grown as needed and returned. The returned CostsBatch aliases
// session buffers and is valid until the next call on this session.
func (s *Session) CharacterizeBatch(ctx context.Context, sizes, batches []float64, policy graph.SchedulePolicy,
	withOps bool, reqs []Requirements) ([]Requirements, *costmodel.CostsBatch, error) {

	if len(sizes) != len(batches) {
		return nil, nil, fmt.Errorf("core: %d sizes but %d batches", len(sizes), len(batches))
	}
	// One span per batch (≤ ~32 rows), not per row: the whole point of the
	// batched path is that per-row work is a few array reads, so the timing
	// granularity matches the unit of work the scheduler dispatches.
	sp := obs.StartSpan(ctx, "characterize_batch", stageCharacterizeBatch)
	ctx = sp.Attach(ctx)
	defer sp.End()
	a := s.a
	rows := len(sizes)
	if cap(reqs) < rows {
		reqs = make([]Requirements, rows)
	}
	reqs = reqs[:rows]

	if s.batch == nil {
		s.batch = a.Compiled.NewBatch(rows)
	} else {
		s.batch.Resize(rows)
	}
	copy(s.batch.Col(a.sizeSlot), sizes)
	copy(s.batch.Col(a.batchSlot), batches)

	v := &s.vals
	v.params = a.Compiled.ParamCount.EvalBatchInto(s.batch, v.params, &s.eval)
	v.flops = a.Compiled.TotalFLOPs.EvalBatchInto(s.batch, v.flops, &s.eval)
	v.bytes = a.Compiled.TotalBytes.EvalBatchInto(s.batch, v.bytes, &s.eval)
	v.io = a.Compiled.IO.EvalBatchInto(s.batch, v.io, &s.eval)
	v.fwd = a.fwdFLOPs.EvalBatchInto(s.batch, v.fwd, &s.eval)
	v.bwd = a.bwdFLOPs.EvalBatchInto(s.batch, v.bwd, &s.eval)
	v.tensUniq = a.Compiled.TensorBytesBatch(s.batch, v.tensUniq, &s.eval)

	fsp := obs.StartSpan(ctx, "footprint", stageFootprint)
	for r := 0; r < rows; r++ {
		req := Requirements{
			Domain: a.Model.Domain,
			Name:   a.Model.Name,
			Size:   sizes[r],
			Batch:  batches[r],

			Params:       v.params[r],
			FLOPsPerStep: v.flops[r],
			BytesPerStep: v.bytes[r],
			IOBytes:      v.io[r],
			FwdFLOPs:     v.fwd[r],
			BwdFLOPs:     v.bwd[r],
		}
		req.FLOPsPerSample = req.FLOPsPerStep / batches[r]
		if req.BytesPerStep > 0 {
			req.Intensity = req.FLOPsPerStep / req.BytesPerStep
		}
		res, err := a.Compiled.FootprintFromBatch(v.tensUniq, rows, r, policy, &s.fp)
		if err != nil {
			fsp.End()
			return reqs, nil, err
		}
		req.FootprintBytes = res.PeakBytes
		req.PersistentBytes = res.PersistentBytes
		reqs[r] = req
	}
	fsp.End()

	s.costs = costmodel.CostsBatch{Rows: rows, FLOPs: v.flops, Bytes: v.bytes}
	if withOps {
		v.nodeUniq = a.Compiled.NodeCostsBatch(s.batch, v.nodeUniq, &s.eval)
		s.ops = costmodel.OpsBatch{
			Rows:     rows,
			Distinct: a.distinctOps,
			NodeOp:   a.nodeOp,
			Uniq:     v.nodeUniq,
		}
		s.costs.Ops = &s.ops
	}
	return reqs, &s.costs, nil
}

// SweepParams characterizes the model at a list of target parameter counts
// with a fixed subbatch, fanning contiguous chunks of points out across a
// bounded worker pool; each chunk is one batched characterize pass.
func (a *Analyzer) SweepParams(paramTargets []float64, batch float64,
	policy graph.SchedulePolicy) ([]Requirements, error) {

	out := make([]Requirements, len(paramTargets))
	err := a.parallelChunks(len(paramTargets), func(lo, hi int, s *Session) error {
		sizes := make([]float64, hi-lo)
		batches := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			size, err := a.sizeForParamsWith(s.slots, paramTargets[i])
			if err != nil {
				return fmt.Errorf("core: %s at %g params: %w", a.Model.Domain, paramTargets[i], err)
			}
			sizes[i-lo] = size
			batches[i-lo] = batch
		}
		reqs, _, err := s.CharacterizeBatch(context.Background(), sizes, batches, policy, false, out[lo:hi:hi])
		if err != nil {
			return err
		}
		copy(out[lo:hi], reqs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sizeForParamsWith is SizeForParams over a caller-owned slot buffer.
func (a *Analyzer) sizeForParamsWith(slots []float64, target float64) (float64, error) {
	slots[a.batchSlot] = 1
	f := func(s float64) float64 {
		slots[a.sizeSlot] = s
		return a.Compiled.ParamCount.Eval(slots) - target
	}
	lo, hi := 1e-3, 1e-3
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("target %g parameters unreachable", target)
		}
	}
	return fit.Bisect(f, lo, hi, 1e-9)
}

// parallelPoints runs fn for each index across min(GOMAXPROCS, n) workers,
// each with its own evaluation session. The first error wins.
func (a *Analyzer) parallelPoints(n int, fn func(i int, s *Session) error) error {
	return a.parallelRange(n, 1, func(lo, hi int, s *Session) error {
		for i := lo; i < hi; i++ {
			if err := fn(i, s); err != nil {
				return err
			}
		}
		return nil
	})
}

// parallelChunks partitions n indices into contiguous chunks and runs fn
// once per chunk with a worker-owned session, so each chunk can be one
// batched evaluation.
func (a *Analyzer) parallelChunks(n int, fn func(lo, hi int, s *Session) error) error {
	workers := runtime.GOMAXPROCS(0)
	chunk := 1
	if workers > 0 {
		chunk = (n + workers - 1) / workers
	}
	// Cap chunk length so a handful of points still spreads across workers
	// and batched buffers stay cache-sized.
	if chunk > 16 {
		chunk = 16
	}
	if chunk < 1 {
		chunk = 1
	}
	return a.parallelRange(n, chunk, fn)
}

// parallelRange dispatches [lo, hi) index ranges of the given chunk length
// to a bounded worker pool. Each worker takes one session from the pool
// for its lifetime; fn copies its results out of it. The first error wins.
func (a *Analyzer) parallelRange(n, chunk int, fn func(lo, hi int, s *Session) error) error {
	tasks := (n + chunk - 1) / chunk
	workers := runtime.GOMAXPROCS(0)
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		s := a.GetSession()
		defer a.PutSession(s)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi, s); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		done     = make(chan struct{})
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := a.GetSession()
			defer a.PutSession(s)
			for lo := range next {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi, s); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(done)
					})
				}
			}
		}()
	}
	// Stop dispatching once any worker fails; chunks already in flight
	// finish, the rest are never evaluated.
dispatch:
	for lo := 0; lo < n; lo += chunk {
		select {
		case next <- lo:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

// FitAsymptotics fits the Table 2 first-order models through the compiled
// session: γ from per-sample FLOPs at the largest sizes, (λ, µ) by two-term
// least squares over a size × batch grid, δ from the footprint slope.
func (a *Analyzer) FitAsymptotics(paramTargets, batches []float64,
	footBatch float64, policy graph.SchedulePolicy) (Asymptotics, error) {

	asym := Asymptotics{Domain: a.Model.Domain}
	if len(paramTargets) < 2 || len(batches) < 2 {
		return asym, fmt.Errorf("core: asymptotics need >=2 sizes and batches")
	}

	// Solve every target size once, in parallel (each is a bisection over
	// the compiled parameter program).
	sizes := make([]float64, len(paramTargets))
	err := a.parallelPoints(len(paramTargets), func(i int, s *Session) error {
		size, err := a.sizeForParamsWith(s.slots, paramTargets[i])
		sizes[i] = size
		return err
	})
	if err != nil {
		return asym, err
	}

	// γ from per-sample FLOPs at batch 1.
	slots := a.newSlots()
	ps := make([]float64, len(sizes))
	fs := make([]float64, len(sizes))
	for i, size := range sizes {
		a.bind(slots, size, 1)
		ps[i] = a.Compiled.ParamCount.Eval(slots)
		fs[i] = a.Compiled.TotalFLOPs.Eval(slots)
	}
	gamma, err := fit.AsymptoticSlope(ps, fs)
	if err != nil {
		return asym, err
	}
	asym.Gamma = gamma

	// (λ, µ) by two-term least squares over the grid.
	var us, vs, ys []float64
	for _, size := range sizes {
		for _, b := range batches {
			a.bind(slots, size, b)
			p := a.Compiled.ParamCount.Eval(slots)
			us = append(us, p)
			vs = append(vs, b*math.Sqrt(p))
			ys = append(ys, a.Compiled.TotalBytes.Eval(slots))
		}
	}
	tt, err := fit.TwoTermLeastSquares(us, vs, ys)
	if err != nil {
		return asym, err
	}
	asym.Lambda, asym.Mu, asym.BytesR2 = tt.A, tt.B, tt.R2

	// δ from the footprint slope at the profiling subbatch.
	var fps, foots []float64
	for _, size := range sizes[len(sizes)-2:] {
		a.bind(slots, size, footBatch)
		res, err := a.Compiled.Footprint(slots, policy)
		if err != nil {
			return asym, err
		}
		fps = append(fps, a.Compiled.ParamCount.Eval(slots))
		foots = append(foots, res.PeakBytes)
	}
	delta, err := fit.AsymptoticSlope(fps, foots)
	if err != nil {
		return asym, err
	}
	asym.Delta = delta

	if asym.Gamma > 0 {
		asym.IntensityX = asym.Lambda / asym.Gamma
		asym.IntensityY = asym.Mu / asym.Gamma
	}
	return asym, nil
}

// StepEval builds an hw.StepEval closure at a fixed size over the compiled
// programs. The footprint traversal is skipped during sweeps (reported as 0)
// because only the chosen point needs it. The closure reuses one slot
// buffer and is not safe for concurrent calls.
func (a *Analyzer) StepEval(size float64) hw.StepEval {
	slots := a.newSlots()
	return func(b float64) (float64, float64, float64, error) {
		a.bind(slots, size, b)
		return a.Compiled.TotalFLOPs.Eval(slots), a.Compiled.TotalBytes.Eval(slots), 0, nil
	}
}

// costsAt evaluates the step's cost vector under the current slot binding.
// When full is true the per-node costs are filled into ops (grown as
// needed, returned for reuse) by evaluating the unique node-cost programs
// once into uniq and gathering by index; otherwise only the graph totals
// are filled and the buffers pass through untouched.
func (a *Analyzer) costsAt(slots []float64, ops []costmodel.OpCost, uniq []float64,
	full bool) (costmodel.Costs, []costmodel.OpCost, []float64) {

	c := costmodel.Costs{
		FLOPs: a.Compiled.TotalFLOPs.Eval(slots),
		Bytes: a.Compiled.TotalBytes.Eval(slots),
	}
	if !full {
		return c, ops, uniq
	}
	uniq = a.Compiled.CostValues(slots, uniq)
	flopIx, byteIx := a.Compiled.CostIndexes()
	n := len(flopIx)
	if cap(ops) < n {
		ops = make([]costmodel.OpCost, n)
	}
	ops = ops[:n]
	for i := range ops {
		ops[i] = costmodel.OpCost{
			Kind:  a.opKinds[i],
			FLOPs: uniq[flopIx[i]],
			Bytes: uniq[byteIx[i]],
		}
	}
	c.Ops = ops
	return c, ops, uniq
}

// StepCosts evaluates the cost vector at one (size, batch) point. The
// per-node breakdown is evaluated only when full is true — graph-level
// backends never pay for it. The returned Costs owns its Ops slice and may
// be retained.
func (a *Analyzer) StepCosts(size, batch float64, full bool) costmodel.Costs {
	slots := a.newSlots()
	a.bind(slots, size, batch)
	c, _, _ := a.costsAt(slots, nil, nil, full)
	return c
}

// StepCostEval builds a costmodel.StepEval closure at a fixed size: the
// cost-vector generalization of StepEval for pluggable step-time backends.
// The closure reuses one slot buffer and one Ops buffer, so each returned
// Costs is valid only until the next call; it is not safe for concurrent
// use.
func (a *Analyzer) StepCostEval(size float64, full bool) costmodel.StepEval {
	slots := a.newSlots()
	var ops []costmodel.OpCost
	var uniq []float64
	return func(b float64) (costmodel.Costs, float64, error) {
		a.bind(slots, size, b)
		var c costmodel.Costs
		c, ops, uniq = a.costsAt(slots, ops, uniq, full)
		return c, 0, nil
	}
}

// ProjectFrontier computes one Table 3 row through the compiled session
// with the default (graph-level Roofline) step-time backend.
func (a *Analyzer) ProjectFrontier(proj scaling.Projection, acc hw.Accelerator,
	policy graph.SchedulePolicy) (Frontier, error) {
	return a.ProjectFrontierWith(proj, acc, costmodel.Default(), policy)
}

// ProjectFrontierWith is ProjectFrontier under a pluggable step-time
// backend: the §5.2.1 subbatch choice and the projected step time both
// route through the backend, so a per-op model shifts the whole row, not
// just the final column. The default backend reproduces the legacy output
// byte-for-byte.
func (a *Analyzer) ProjectFrontierWith(proj scaling.Projection, acc hw.Accelerator,
	cm costmodel.Model, policy graph.SchedulePolicy) (Frontier, error) {

	f := Frontier{
		Spec:              proj.Spec,
		TargetDataSamples: proj.TargetDataSamples,
		TargetParams:      proj.TargetParams,
	}
	size, err := a.SizeForParams(proj.TargetParams)
	if err != nil {
		return f, err
	}
	f.Size = size

	full := costmodel.NeedsOpCosts(cm)
	sweep, err := costmodel.SubbatchSweep(a.StepCostEval(size, full), acc, cm, hw.PowersOfTwo(10))
	if err != nil {
		return f, err
	}
	chosen, err := hw.ChooseSubbatch(sweep, acc, hw.MinTimePerSample, 0.05)
	if err != nil {
		return f, err
	}
	// Already-compute-bound models (CNNs) minimize per-sample time at any
	// subbatch; floor the choice at the paper's profiled subbatch, which
	// reflects kernel-occupancy needs the Roofline cannot see.
	f.Subbatch = math.Max(chosen.Subbatch, a.Model.DefaultBatch)

	r, err := a.Characterize(context.Background(), size, f.Subbatch, policy)
	if err != nil {
		return f, err
	}
	f.TFLOPsPerStep = r.FLOPsPerStep / 1e12
	f.TBPerStep = r.BytesPerStep / 1e12
	f.FootprintGB = r.FootprintBytes / 1e9
	f.StepSeconds = cm.StepTime(acc, a.StepCosts(size, f.Subbatch, full))
	f.Utilization = acc.Utilization(r.FLOPsPerStep, f.StepSeconds)
	f.MemoryMultiple = r.FootprintBytes / acc.MemCapacity

	samplesPerStep := f.Subbatch * proj.Spec.TokensPerSample
	steps := proj.TargetDataSamples / samplesPerStep
	f.EpochDays = steps * f.StepSeconds / 86400
	return f, nil
}

// FootprintSweep runs the Figure 10 sweep with a 12 GB / 80% allocator cap,
// fanning the points across the worker pool.
func (a *Analyzer) FootprintSweep(paramTargets []float64, batch float64,
	policy graph.SchedulePolicy) ([]FootprintPoint, error) {

	sim := graph.AllocatorSim{CapacityBytes: 12e9, UsableFraction: 0.8}
	out := make([]FootprintPoint, len(paramTargets))
	err := a.parallelPoints(len(paramTargets), func(i int, s *Session) error {
		size, err := a.sizeForParamsWith(s.slots, paramTargets[i])
		if err != nil {
			return err
		}
		a.bind(s.slots, size, batch)
		res, err := a.Compiled.FootprintInto(s.slots, policy, &s.fp)
		if err != nil {
			return err
		}
		out[i] = FootprintPoint{
			Params:          a.Compiled.ParamCount.Eval(s.slots),
			FootprintBytes:  res.PeakBytes,
			AllocatorReport: sim.Apply(res.PeakBytes),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Profile computes the per-op-kind and per-group breakdown at one
// (size, batch) point through the compiled node programs.
func (a *Analyzer) Profile(size, batch float64) (*Profile, error) {
	slots := a.newSlots()
	a.bind(slots, size, batch)
	return profileCompiled(a.Compiled, slots)
}
