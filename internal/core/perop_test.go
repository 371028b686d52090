package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
)

// perOpTargets × perOpSubbatches are the rows the per-op pricing test
// evaluates: three parameter targets from Figure 7 scale to past the
// frontier, by four subbatches.
var (
	perOpTargets    = []float64{2e7, 3e8, 1e10}
	perOpSubbatches = []float64{1, 16, 128, 1024}
)

// buildAnalyzer builds and compiles one domain.
func buildAnalyzer(tb testing.TB, d models.Domain) *Analyzer {
	tb.Helper()
	m, err := models.Build(d)
	if err != nil {
		tb.Fatal(err)
	}
	return newTestAnalyzer(tb, m)
}

// TestPerOpStepTimesBatchMatchesScalar pins the batched per-op pricing to
// the scalar StepTime and Bound of the oracle's cost vector on every domain
// and catalog device, bit for bit: rows from three parameter targets by
// four subbatches, priced as 1-row calls and as one multi-row call, with
// and without bounds. It also
// holds each domain's distinct-op table to a few dozen entries per
// thousands of nodes, which is what makes pricing once per distinct op pay.
func TestPerOpStepTimesBatchMatchesScalar(t *testing.T) {
	const maxDistinctOps = 128
	ctx := context.Background()
	cm := costmodel.PerOpRoofline{}
	for _, d := range models.AllDomains {
		a := buildAnalyzer(t, d)
		nodes := len(a.Model.Graph.Nodes())
		if n := len(a.distinctOps); n == 0 || n > maxDistinctOps || len(a.nodeOp) != nodes {
			t.Fatalf("%s: %d distinct ops for %d nodes (%d indexed), want 1..%d",
				d, n, nodes, len(a.nodeOp), maxDistinctOps)
		}
		t.Logf("%s: %d nodes, %d distinct ops", d, nodes, len(a.distinctOps))

		var sizes, batches []float64
		for _, p := range perOpTargets {
			size, err := a.SizeForParams(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range perOpSubbatches {
				sizes = append(sizes, size)
				batches = append(batches, b)
			}
		}
		rows := len(sizes)
		s := a.GetSession()
		_, costs, err := s.CharacterizeBatch(ctx, sizes, batches, graph.PolicyMemGreedy, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Price every device before the 1-row calls below reuse the
		// session's buffers.
		multi := make(map[string][]float64)
		multiBounds := make(map[string][]costmodel.Bound)
		for _, acc := range hw.Catalog() {
			bounds := make([]costmodel.Bound, rows)
			multi[acc.Name] = cm.StepTimesBatch(acc, costs, nil, bounds)
			multiBounds[acc.Name] = bounds
			noBounds := cm.StepTimesBatch(acc, costs, nil, nil)
			for r := range rows {
				if math.Float64bits(noBounds[r]) != math.Float64bits(multi[acc.Name][r]) {
					t.Fatalf("%s on %s row %d: %v without bounds, %v with", d, acc.Name, r, noBounds[r], multi[acc.Name][r])
				}
			}
		}
		for r := range rows {
			c := oracleCosts(a, sizes[r], batches[r], true)
			_, one, err := s.CharacterizeBatch(ctx, sizes[r:r+1], batches[r:r+1], graph.PolicyMemGreedy, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, acc := range hw.Catalog() {
				want, wantBound := cm.StepTime(acc, c), cm.Bound(acc, c)
				bound := make([]costmodel.Bound, 1)
				got := cm.StepTimesBatch(acc, one, nil, bound)[0]
				if math.Float64bits(got) != math.Float64bits(want) || bound[0] != wantBound {
					t.Fatalf("%s on %s (size %g, batch %g): 1-row call %v %s, scalar %v %s",
						d, acc.Name, sizes[r], batches[r], got, bound[0], want, wantBound)
				}
				if got := cm.StepTimesBatch(acc, one, nil, nil)[0]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s on %s (size %g, batch %g): 1-row call without bounds %v, scalar %v",
						d, acc.Name, sizes[r], batches[r], got, want)
				}
				got = multi[acc.Name][r]
				if math.Float64bits(got) != math.Float64bits(want) || multiBounds[acc.Name][r] != wantBound {
					t.Fatalf("%s on %s (size %g, batch %g): %d-row call %v %s, scalar %v %s",
						d, acc.Name, sizes[r], batches[r], rows, got, multiBounds[acc.Name][r], want, wantBound)
				}
			}
		}
		a.PutSession(s)
	}
}

// BenchmarkPerOpStepTimes prices a plan search's seven default subbatches
// (8 to 512) at a frontier-scale model on one device: as seven 1-row calls
// (rows=1, the shape of a plan search's one-row sweep tasks) or as one
// 7-row call (rows=7). Characterization runs before the timer.
func BenchmarkPerOpStepTimes(b *testing.B) {
	acc := hw.TargetAccelerator()
	cm := costmodel.PerOpRoofline{}
	subbatches := []float64{8, 16, 32, 64, 128, 256, 512}
	ctx := context.Background()
	for _, d := range models.AllDomains {
		a := buildAnalyzer(b, d)
		size, err := a.SizeForParams(1e9)
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 7} {
			b.Run(fmt.Sprintf("%s/rows=%d", d, width), func(b *testing.B) {
				var batches []*costmodel.CostsBatch
				for lo := 0; lo < len(subbatches); lo += width {
					sizes := make([]float64, width)
					for i := range sizes {
						sizes[i] = size
					}
					s := a.GetSession() // one session per batch: each batch aliases its buffers
					_, costs, err := s.CharacterizeBatch(ctx, sizes, subbatches[lo:lo+width], graph.PolicyMemGreedy, true, nil)
					if err != nil {
						b.Fatal(err)
					}
					batches = append(batches, costs)
				}
				dst := make([]float64, width)
				bounds := make([]costmodel.Bound, width)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, costs := range batches {
						dst = cm.StepTimesBatch(acc, costs, dst, bounds)
					}
				}
			})
		}
	}
}
