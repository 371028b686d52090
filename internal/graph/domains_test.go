package graph_test

import (
	"math"
	"sync"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/symbolic"
)

// domainModels holds each domain's model, built on first use, so the
// tests and benchmarks of this package build each domain graph once.
var domainModels = struct {
	sync.Mutex
	m map[models.Domain]*models.Model
}{m: make(map[models.Domain]*models.Model)}

// domainModel returns d's model, building it on first use.
func domainModel(d models.Domain) *models.Model {
	domainModels.Lock()
	defer domainModels.Unlock()
	m, ok := domainModels.m[d]
	if !ok {
		m = models.MustBuild(d)
		domainModels.m[d] = m
	}
	return m
}

// domainRows compiles a domain's training graph and binds sweep-like rows:
// params × subbatches, with each parameter target inverted to the model's
// size hyperparameter. It returns the batched tensor-byte matrix the
// footprint simulator reads, and its row count.
func domainRows(tb testing.TB, d models.Domain, params, subbatches []float64) (*models.Model, *graph.Compiled, []float64, int) {
	tb.Helper()
	m := domainModel(d)
	c := graph.Compile(m.Graph)
	sizeSlot, ok1 := c.Syms.Slot(m.SizeSymbol)
	batchSlot, ok2 := c.Syms.Slot(m.BatchSymbol)
	if !ok1 || !ok2 {
		tb.Fatalf("%s: graph lacks size or batch symbol", d)
	}
	rows := len(params) * len(subbatches)
	b := c.NewBatch(rows)
	for i, p := range params {
		size, err := m.SizeForParams(p)
		if err != nil {
			tb.Fatal(err)
		}
		for j, sb := range subbatches {
			b.Set(i*len(subbatches)+j, sizeSlot, size)
			b.Set(i*len(subbatches)+j, batchSlot, sb)
		}
	}
	var es symbolic.BatchScratch
	return m, c, c.TensorBytesBatch(b, nil, &es), rows
}

// sweepParams returns n parameter targets, one at the log-space midpoint
// of each of n equal strata of [1e7, 1e10], as the sweep benchmark draws.
func sweepParams(n int) []float64 {
	out := make([]float64, n)
	for j := range out {
		out[j] = 1e7 * math.Pow(1e3, (float64(j)+0.5)/float64(n))
	}
	return out
}

var sweepSubbatches = []float64{8, 32, 128, 512}

// TestFootprintDomainsMatchOracle runs the flat simulator over all five
// domain graphs at sweep-like rows (8 params × 4 subbatches; 2 × 2 in
// -short mode) under both policies and checks every row against the
// pointer oracle and the replay.
func TestFootprintDomainsMatchOracle(t *testing.T) {
	params, subs := sweepParams(8), sweepSubbatches
	if testing.Short() {
		params, subs = sweepParams(2), subs[1:3]
	}
	for _, d := range models.AllDomains {
		t.Run(string(d), func(t *testing.T) {
			m, c, uniq, rows := domainRows(t, d, params, subs)
			bytes := make([]float64, len(m.Graph.Tensors()))
			var fs graph.FootprintScratch
			for _, policy := range []graph.SchedulePolicy{graph.PolicyFIFO, graph.PolicyMemGreedy} {
				for r := 0; r < rows; r++ {
					for i := range bytes {
						bytes[i] = uniq[int(c.TensorIndex(i))*rows+r]
					}
					got, err := c.FootprintFromBatch(uniq, rows, r, policy, &fs)
					if err != nil {
						t.Fatal(err)
					}
					graph.CheckFootprint(t, m.Graph, bytes, policy, got)
				}
			}
		})
	}
}

// BenchmarkFootprintDomains times the sweep's footprint step on the real
// domain graphs (34k–47k nodes for the recurrent ones): one 32-row
// mem-greedy chunk of FootprintFromBatch per iteration, reported per graph
// node per row.
func BenchmarkFootprintDomains(b *testing.B) {
	for _, d := range models.AllDomains {
		b.Run(string(d), func(b *testing.B) {
			m, c, uniq, rows := domainRows(b, d, sweepParams(8), sweepSubbatches)
			var fs graph.FootprintScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					if _, err := c.FootprintFromBatch(uniq, rows, r, graph.PolicyMemGreedy, &fs); err != nil {
						b.Fatal(err)
					}
				}
			}
			nodeRows := float64(b.N) * float64(rows) * float64(len(m.Graph.Nodes()))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodeRows, "ns/node-row")
		})
	}
}
