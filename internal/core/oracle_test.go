package core

import (
	"context"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
)

// The scalar oracle: one point evaluated through each compiled program's
// scalar Eval and Compiled.Footprint, with no batch, no session and no
// shared buffers. Every batched row, one-row or multi-row, must equal it
// bit for bit.

// oracleCharacterize is one point's Requirements, evaluated scalar.
func oracleCharacterize(a *Analyzer, size, batch float64, policy graph.SchedulePolicy) (Requirements, error) {
	slots := a.newSlots()
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
	res, err := a.Compiled.Footprint(slots, policy)
	if err != nil {
		return r, err
	}
	r.FootprintBytes = res.PeakBytes
	r.PersistentBytes = res.PersistentBytes
	return r, nil
}

// oracleCosts is one point's step cost vector, evaluated scalar. When full
// is set it carries one OpCost per node, in Nodes() order, gathered from
// the unique node-cost programs.
func oracleCosts(a *Analyzer, size, batch float64, full bool) costmodel.Costs {
	slots := a.newSlots()
	a.bind(slots, size, batch)
	c := costmodel.Costs{
		FLOPs: a.Compiled.TotalFLOPs.Eval(slots),
		Bytes: a.Compiled.TotalBytes.Eval(slots),
	}
	if !full {
		return c
	}
	uniq := a.Compiled.CostValues(slots, nil)
	flopIx, byteIx := a.Compiled.CostIndexes()
	for i, n := range a.Model.Graph.Nodes() {
		c.Ops = append(c.Ops, costmodel.OpCost{
			Kind:  n.Op.Kind(),
			FLOPs: uniq[flopIx[i]],
			Bytes: uniq[byteIx[i]],
		})
	}
	return c
}

// newTestAnalyzer compiles a model or fails the test.
func newTestAnalyzer(tb testing.TB, m *models.Model) *Analyzer {
	tb.Helper()
	a, err := NewAnalyzer(m)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// characterize is one point through Point on the paper's Table 4 device
// under the default cost model.
func characterize(a *Analyzer, size, batch float64) (Requirements, error) {
	r, _, err := a.Point(context.Background(), size, batch, graph.PolicyMemGreedy,
		hw.TargetAccelerator(), costmodel.Default())
	return r, err
}
