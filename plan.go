package catamount

import (
	"context"

	"catamount/internal/plan"
)

// PlanSpec describes an inverse capacity query: an accuracy target plus a
// search space of accelerators, worker counts, subbatches, and parallelism
// strategies. See internal/plan.Spec for field semantics; this is also the
// JSON schema of the catamountd POST /v1/plan endpoint.
type PlanSpec = plan.Spec

// PlanResult is one full search: the resolved target, every candidate
// (infeasible ones annotated), and the deterministic Pareto frontier over
// {time, devices, cost}.
type PlanResult = plan.Result

// TrainingPlan is one evaluated cluster configuration.
type TrainingPlan = plan.Plan

// PlanTarget is the learning-curve inversion of a requested accuracy.
type PlanTarget = plan.Target

// maxPlanEntries bounds the per-key planner memo, mirroring the
// case-study memo: generous for the catalog-search working set while
// long-tail custom searches evict least-recently-used entries.
const maxPlanEntries = 64

// Plan answers the inverse query: what cluster configurations reach the
// target, and which are Pareto-optimal over {time, devices, cost}? The
// search composes the session's compiled models through the sweep worker
// pool, and results are memoized by canonical search key in an LRU:
// repeated queries for the same target cost one lock and a map lookup, and
// concurrent callers for one key share a single search.
func (e *Engine) Plan(spec PlanSpec) (*PlanResult, error) {
	p, err := plan.New(e, spec)
	if err != nil {
		return nil, err
	}
	ent := e.plans.GetOrCreate(p.Key(), func() *planEntry { return &planEntry{} })
	ent.once.Do(func() {
		// Detached context: the memoized result outlives any one caller,
		// so one caller's cancellation must not poison the entry.
		ent.res, ent.err = p.Run(context.Background())
	})
	return ent.res, ent.err
}

// PlanSearch runs an unmemoized search under the caller's context —
// cancellable, and never retained. Long-tail interactive what-ifs belong
// here; repeated queries belong on Plan.
func (e *Engine) PlanSearch(ctx context.Context, spec PlanSpec) (*PlanResult, error) {
	p, err := plan.New(e, spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}
