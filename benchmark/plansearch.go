package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	cat "catamount"
)

// planSearch calls the unmemoized Engine.PlanSearch back to back from one
// client over the default 1,575-candidate space. Every block of 20 ops
// searches each domain four times, in a seeded order. A search's cost
// depends on its target (how many candidates are feasible drives the
// Pareto marking), so each domain has four seeded target errors, one in
// each quarter of the range between its Table 1 desired and current SOTA,
// and every block searches each of them once; one of the four, rotating
// from block to block, prices with the per-op cost model.
type planSearch struct {
	seed    uint64
	targets map[cat.Domain][]float64
	offsets map[cat.Domain]int // first block's perop target, per domain
}

const planOpsPerDomain = 4 // per block: one per target quarter

func newPlanSearch(seed uint64) *planSearch {
	rng := newRand(seed, streamFixed)
	w := &planSearch{seed: seed, targets: map[cat.Domain][]float64{}, offsets: map[cat.Domain]int{}}
	for _, d := range cat.Domains() {
		spec, err := cat.SpecFor(d)
		if err != nil {
			panic(err) // the domain list and the spec table are one registry
		}
		lo, hi := spec.DesiredSOTA, spec.CurrentSOTA
		for k := range planOpsPerDomain {
			q := (float64(k) + rng.Float64()) / planOpsPerDomain
			w.targets[d] = append(w.targets[d], lo+q*(hi-lo))
		}
		w.offsets[d] = rng.IntN(planOpsPerDomain)
	}
	return w
}

func (*planSearch) start(context.Context, *cat.Engine) error { return nil }
func (*planSearch) stop()                                    {}

// planSpecs draws a pass's searches, block by block.
func (w *planSearch) planSpecs(pc passConfig) []cat.PlanSpec {
	rng := newRand(w.seed, pc.stream)
	var specs []cat.PlanSpec
	for b := range pc.blocks {
		var block []cat.PlanSpec
		for _, d := range cat.Domains() {
			for k, target := range w.targets[d] {
				spec := cat.PlanSpec{Domain: string(d), TargetErr: target}
				if k == (w.offsets[d]+b)%planOpsPerDomain {
					spec.CostModel = "perop"
				}
				block = append(block, spec)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		specs = append(specs, block...)
	}
	return specs
}

func (w *planSearch) pass(ctx context.Context, eng *cat.Engine, pc passConfig) (*passResult, error) {
	specs := w.planSpecs(pc)
	blockOps := len(cat.Domains()) * planOpsPerDomain
	res := &passResult{}
	var attr *attribution
	if pc.traced {
		attr = newAttribution()
	}
	nodes, err := nodeCounts(eng)
	if err != nil {
		return nil, err
	}
	var done []searched
	var nodeRows, candidates float64
	var blockSecs []float64
	blockStart := time.Now()
	for i, spec := range specs {
		octx, ot := startOp(ctx, attr, i)
		start := time.Now()
		pr, err := eng.PlanSearch(octx, spec)
		res.latencies = append(res.latencies, time.Since(start).Seconds())
		if err := ot.finish(attr); err != nil {
			return nil, err
		}
		res.attempted++
		if err != nil {
			res.failed++
		} else {
			done = append(done, searched{spec: spec, frontier: pr.Frontier})
			if attr != nil {
				candidates += float64(pr.Candidates)
				// One characterization row per searched subbatch.
				nodeRows += float64(len(subbatchesOf(pr)) * nodes[cat.Domain(spec.Domain)])
			}
		}
		if (i+1)%blockOps == 0 {
			now := time.Now()
			blockSecs = append(blockSecs, now.Sub(blockStart).Seconds())
			blockStart = now
		}
	}
	res.blockSecs, res.blockWork = blockSecs, float64(blockOps)
	res.verify = func(context.Context) (int, error) { return verifyPlans(eng, done), nil }
	if attr != nil {
		res.layers = sweepLayers(attr, res.latencies, nodeRows)
		res.layers.set("plan.candidates", "count", candidates)
	}
	return res, nil
}

// subbatchesOf lists the distinct subbatches a search characterized.
func subbatchesOf(pr *cat.PlanResult) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range pr.Plans {
		if !seen[p.Subbatch] {
			seen[p.Subbatch] = true
			out = append(out, p.Subbatch)
		}
	}
	return out
}

// searched is one successful search, kept for the output check. Only the
// frontier is kept, so the candidates do not stay in the live heap.
type searched struct {
	spec     cat.PlanSpec
	frontier []cat.TrainingPlan
}

// verifyPlans checks the frontier of every successful search, an empty
// one too (a failed search was counted when it failed), and returns how
// many fail.
func verifyPlans(eng *cat.Engine, done []searched) int {
	failed := 0
	for _, s := range done {
		if checkFrontier(eng, s.spec, s.frontier) != nil {
			failed++
		}
	}
	return failed
}

// checkFrontier requires a non-empty frontier equal to the memoized
// Engine.Plan answer for the same spec.
func checkFrontier(eng *cat.Engine, spec cat.PlanSpec, frontier []cat.TrainingPlan) error {
	if len(frontier) == 0 {
		return fmt.Errorf("%s target %g: empty frontier", spec.Domain, spec.TargetErr)
	}
	want, err := eng.Plan(spec)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(frontier, want.Frontier) {
		return fmt.Errorf("%s target %g: frontier differs from Engine.Plan", spec.Domain, spec.TargetErr)
	}
	return nil
}
