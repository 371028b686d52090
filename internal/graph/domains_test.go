package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
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

// distinctKeyGraph builds n nodes that are all ready at once and whose
// tensor sizes are pairwise distinct: node i reads graph input x_i and
// writes a_i, so its mem-greedy key, size(a_i) − size(x_i), differs from
// every other node's, in shuffled order. An uploaded checkpoint can take
// this shape; it sends every key past the ready set's buckets into its
// overflow heap.
func distinctKeyGraph(n int) *graph.Graph {
	g := graph.New("distinct-keys")
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i := 0; i < n; i++ {
		in := float64(2*i + 1)
		x := g.NewTensor(fmt.Sprintf("x%d", i), graph.Input, tensor.F32, tensor.Of(in))
		a := g.NewTensor(fmt.Sprintf("a%d", i), graph.Activation, tensor.F32, tensor.Of(in+float64(2*n*(perm[i]+1))))
		g.MustAddNode(fmt.Sprintf("n%d", i), "", copyOp{}, []*graph.Tensor{x}, []*graph.Tensor{a})
	}
	return g
}

// copyOp is an op that moves its operands and computes nothing.
type copyOp struct{}

func (copyOp) Kind() string                      { return "copy" }
func (copyOp) FLOPs(*graph.Node) symbolic.Expr   { return symbolic.C(0) }
func (copyOp) Bytes(n *graph.Node) symbolic.Expr { return graph.IOBytes(n) }

const distinctKeyNodes = 50_000

// TestFootprintDistinctKeysAllocBound bounds what one Compiled.Footprint,
// the checkpoint upload's call, allocates on the distinct-key graph: at
// most 263 bytes per node under either policy, twice the 131.7 that the
// heap-only ready set allocated on this graph. The results must match the
// oracle.
func TestFootprintDistinctKeysAllocBound(t *testing.T) {
	g := distinctKeyGraph(distinctKeyNodes)
	c := graph.Compile(g)
	slots := c.NewSlots()
	bytes := make([]float64, len(g.Tensors()))
	for i, tn := range g.Tensors() {
		bytes[i] = symbolic.MustEval(tn.Bytes(), nil)
	}
	for _, policy := range []graph.SchedulePolicy{graph.PolicyFIFO, graph.PolicyMemGreedy} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := c.Footprint(slots, policy)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / distinctKeyNodes
		t.Logf("%v: %.1f bytes per node", policy, perNode)
		if perNode > 263 {
			t.Fatalf("%v: Compiled.Footprint allocates %.1f bytes per node, over 263", policy, perNode)
		}
		graph.CheckFootprint(t, g, bytes, policy, got)
	}
}

// BenchmarkFootprintDistinctKeys times FootprintFromBatch on the
// distinct-key graph under both policies, reported per graph node.
func BenchmarkFootprintDistinctKeys(b *testing.B) {
	c := graph.Compile(distinctKeyGraph(distinctKeyNodes))
	var es symbolic.BatchScratch
	uniq := c.TensorBytesBatch(c.NewBatch(1), nil, &es)
	for _, policy := range []graph.SchedulePolicy{graph.PolicyFIFO, graph.PolicyMemGreedy} {
		b.Run(policy.String(), func(b *testing.B) {
			var fs graph.FootprintScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.FootprintFromBatch(uniq, 1, 0, policy, &fs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*distinctKeyNodes), "ns/node-row")
		})
	}
}

// TestFootprintAtLeastOptimumWordLMCells compares both policies with the
// exact optimum on the smallest word-LM training graphs (1 layer, vocab
// 16, h 16, b 4): unrolled 1 step (52 nodes) and 2 steps (98 nodes; left
// out under -short). Neither policy may read below the optimum.
func TestFootprintAtLeastOptimumWordLMCells(t *testing.T) {
	steps := []int{1, 2}
	if testing.Short() {
		steps = steps[:1]
	}
	env := symbolic.Env{"h": 16, "b": 4}
	for _, seq := range steps {
		g := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: seq, Vocab: 16}).Graph
		greedy, err := g.Footprint(env, graph.PolicyMemGreedy)
		if err != nil {
			t.Fatal(err)
		}
		fifo, err := g.Footprint(env, graph.PolicyFIFO)
		if err != nil {
			t.Fatal(err)
		}
		opt, states, ok := graph.ExactOptimum(g, env, min(greedy.PeakTransientBytes, fifo.PeakTransientBytes))
		t.Logf("%d nodes: optimum %v, mem-greedy %v, FIFO %v transient bytes (%d downsets)",
			len(g.Nodes()), opt, greedy.PeakTransientBytes, fifo.PeakTransientBytes, states)
		if !ok || greedy.PeakTransientBytes < opt || fifo.PeakTransientBytes < opt {
			t.Fatalf("%d nodes: optimum %v (ok %v), mem-greedy %v, FIFO %v", len(g.Nodes()),
				opt, ok, greedy.PeakTransientBytes, fifo.PeakTransientBytes)
		}
	}
}
