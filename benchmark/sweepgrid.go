package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	cat "catamount"
	"catamount/internal/obs"
	"catamount/internal/sweep"
)

// sweepGrid calls Engine.Sweep back to back from one client. Each op is a
// seeded grid over all five domains × 8 parameter targets (one in each
// eighth of [1e7, 1e10) in log space) × 4 subbatches × the five catalog
// accelerators (800 points), NDJSON-encoded
// through sweep.LineEncoder into a discarding writer; every third op prices
// with the per-op cost model.
type sweepGrid struct {
	seed uint64
}

const (
	sweepParams     = 8
	sweepSubbatches = 4
	sweepOpsBlock   = 3 // two graph-priced sweeps, one perop
	sweepSamples    = 2 // points per op re-derived through Engine.AnalyzeOn
)

func (*sweepGrid) start(context.Context, *cat.Engine) error { return nil }
func (*sweepGrid) stop()                                    {}

// sweepSpecs draws a pass's grids.
func (w *sweepGrid) sweepSpecs(pc passConfig) []cat.SweepSpec {
	rng := newRand(w.seed, pc.stream)
	var accs []string
	for _, a := range cat.Accelerators() {
		accs = append(accs, a.Name)
	}
	specs := make([]cat.SweepSpec, pc.blocks*sweepOpsBlock)
	for i := range specs {
		params := make([]float64, sweepParams)
		for j := range params {
			params[j] = logStratum(rng, 1e7, 1e10, j, sweepParams)
		}
		// Four distinct powers of two from 8 to 512.
		pow := rng.Perm(7)[:sweepSubbatches]
		slices.Sort(pow)
		subs := make([]float64, sweepSubbatches)
		for j, p := range pow {
			subs[j] = float64(int(8) << p)
		}
		specs[i] = cat.SweepSpec{Params: params, Subbatches: subs, Accelerators: accs}
		if i%sweepOpsBlock == sweepOpsBlock-1 {
			specs[i].CostModel = "perop"
		}
	}
	return specs
}

// sampled is one streamed point kept for the output check.
type sampled struct {
	point     cat.SweepPoint
	costModel string
}

func (w *sweepGrid) pass(ctx context.Context, eng *cat.Engine, pc passConfig) (*passResult, error) {
	specs := w.sweepSpecs(pc)
	pick := newRand(w.seed, pc.stream|1<<32)
	res := &passResult{}
	var attr *attribution
	if pc.traced {
		attr = newAttribution()
	}
	var nodeRows, points float64
	nodes, err := nodeCounts(eng)
	if err != nil {
		return nil, err
	}
	enc := sweep.NewLineEncoder(io.Discard)
	var samples []sampled
	var blockSecs []float64
	blockStart := time.Now()
	for i, spec := range specs {
		want := map[int]bool{}
		for len(want) < sweepSamples {
			want[pick.IntN(800)] = true
		}
		octx, ot := startOp(ctx, attr, i)
		next, bad := 0, 0
		start := time.Now()
		err := eng.Sweep(octx, spec, func(p cat.SweepPoint) error {
			var sp obs.ActiveSpan
			if ot != nil {
				sp = obs.StartSpan(octx, stageEncode, nil)
			}
			err := enc.NDJSON(p)
			sp.End()
			if p.Error != "" || p.Seq != next {
				bad++
			}
			if want[p.Seq] {
				samples = append(samples, sampled{point: p, costModel: spec.CostModel})
			}
			next++
			return err
		})
		res.latencies = append(res.latencies, time.Since(start).Seconds())
		if err := ot.finish(attr); err != nil {
			return nil, err
		}
		res.attempted++
		if err != nil || bad > 0 || next != 800 {
			res.failed++
		}
		points += float64(next)
		for _, d := range cat.Domains() {
			nodeRows += float64(sweepParams * sweepSubbatches * nodes[d])
		}
		if (i+1)%sweepOpsBlock == 0 {
			now := time.Now()
			blockSecs = append(blockSecs, now.Sub(blockStart).Seconds())
			blockStart = now
		}
	}
	res.blockSecs, res.blockWork = blockSecs, sweepOpsBlock*800
	res.verify = func(ctx context.Context) (int, error) {
		failed := 0
		for _, s := range samples {
			if checkSweepPoint(ctx, eng, s.point, s.costModel) != nil {
				failed++
			}
		}
		return failed, nil
	}
	if attr != nil {
		res.layers = sweepLayers(attr, res.latencies, nodeRows)
		res.layers.set("sweep.points", "count", points)
	}
	return res, nil
}

// checkSweepPoint re-derives one streamed point through the scalar
// Engine.AnalyzeOn path and requires the same requirements and step time.
func checkSweepPoint(ctx context.Context, eng *cat.Engine, p cat.SweepPoint, costModel string) error {
	if p.Requirements == nil {
		return fmt.Errorf("point %d: no requirements (%s)", p.Seq, p.Error)
	}
	acc, err := cat.AcceleratorByName(p.Accelerator)
	if err != nil {
		return err
	}
	cm, err := cat.ParseCostModel(costModel)
	if err != nil {
		return err
	}
	req, est, err := eng.AnalyzeOn(ctx, p.Domain, p.ParamTarget, p.Subbatch, acc, cm)
	if err != nil {
		return err
	}
	if req != *p.Requirements {
		return fmt.Errorf("point %d: requirements %+v, AnalyzeOn gives %+v", p.Seq, *p.Requirements, req)
	}
	if est.StepSeconds != p.StepSeconds {
		return fmt.Errorf("point %d: step %v s, AnalyzeOn gives %v s", p.Seq, p.StepSeconds, est.StepSeconds)
	}
	return nil
}

// nodeCounts is each domain's graph size, the unit of footprint work.
func nodeCounts(eng *cat.Engine) (map[cat.Domain]int, error) {
	out := map[cat.Domain]int{}
	for _, d := range cat.Domains() {
		m, err := eng.Model(d)
		if err != nil {
			return nil, err
		}
		out[d] = len(m.Graph.Nodes())
	}
	return out, nil
}

// sweepLayers turns a traced pass of sweeps or plan searches into layer
// metrics: self times from the spans, the worker pool's busy share of its
// capacity over the ops, and footprint time per graph node per row.
func sweepLayers(attr *attribution, latencies []float64, nodeRows float64) metrics {
	m := metrics{}
	for layer, secs := range attr.self {
		m.set(layer, "s", secs)
	}
	var wall float64
	for _, l := range latencies {
		wall += l
	}
	m.set("sweep.worker_busy_ratio", "ratio", attr.total["sweep_chunk"]/(wall*float64(runtime.GOMAXPROCS(0))))
	m.set("graph.footprint_ns_per_node_row", "ns", attr.self["graph.footprint_s"]*1e9/nodeRows)
	m.set("plan.run_s", "s", attr.total["plan_run"])
	m.set("bench.unattributed_s", "s", attr.unattributed)
	return m
}
