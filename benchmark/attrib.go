package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"

	"catamount/internal/obs"
)

// Spans the benchmark records itself, around its calls into the program:
// the root of every traced op and each NDJSON line encoding.
const (
	stageOp     = "bench.op"
	stageEncode = "bench.encode"
)

// stageLayer maps a span stage to the per-layer metric its self time
// feeds. The self time of the benchmark's op root, and of any stage not
// listed here, is unattributed: op wall time that no layer span covers.
var stageLayer = map[string]string{
	"sweep_chunk":        "sweep.chunk_s",
	"characterize_batch": "symbolic.eval_s",
	"characterize":       "core.characterize_s",
	"footprint":          "graph.footprint_s",
	"steptime_graph":     "costmodel.steptime_s.graph",
	"steptime_perop":     "costmodel.steptime_s.perop",
	"plan_run":           "plan.setup_self_s",
	"plan_evaluate":      "plan.evaluate_s",
	stageEncode:          "sweep.encode_s",
}

// attribution sums span self times over every traced op of a pass. A
// span's self time is its duration minus the part of its interval that
// its children cover, so parallel children (sweep workers) are not
// subtracted twice.
type attribution struct {
	self         map[string]float64 // layer metric -> seconds
	total        map[string]float64 // stage -> summed span durations
	unattributed float64
}

func newAttribution() *attribution {
	return &attribution{self: map[string]float64{}, total: map[string]float64{}}
}

type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// add folds one finished trace into the sums.
func (a *attribution) add(tr *obs.Trace) error {
	if n := tr.DroppedSpans(); n > 0 {
		return fmt.Errorf("trace %s dropped %d spans; the split would be incomplete", tr.ID(), n)
	}
	spans := tr.Spans()
	kids := make(map[int32][]interval)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], interval{s.StartNs, s.StartNs + s.DurNs})
	}
	for i, s := range spans {
		end := s.StartNs + s.DurNs
		self := float64(s.DurNs-covered(kids[int32(i+1)], s.StartNs, end)) / 1e9
		a.total[s.Stage] += float64(s.DurNs) / 1e9
		if layer, ok := stageLayer[s.Stage]; ok {
			a.self[layer] += self
		} else {
			a.unattributed += self
		}
	}
	return nil
}

// opTrace is one traced op: a trace rooted under the benchmark's own span.
type opTrace struct {
	tr   *obs.Trace
	root obs.ActiveSpan
}

// startOp returns the context an op runs under. When a is nil (untraced
// passes) it returns ctx unchanged and a nil opTrace.
func startOp(ctx context.Context, a *attribution, i int) (context.Context, *opTrace) {
	if a == nil {
		return ctx, nil
	}
	tr := obs.NewTrace("bench-"+strconv.Itoa(i), "bench")
	tctx := tr.Context(ctx)
	root := obs.StartSpan(tctx, stageOp, nil)
	return root.Attach(tctx), &opTrace{tr: tr, root: root}
}

// finish closes the op's trace and folds it into a. Safe on a nil opTrace.
func (t *opTrace) finish(a *attribution) error {
	if t == nil {
		return nil
	}
	t.root.End()
	t.tr.Finish(false)
	return a.add(t.tr)
}
