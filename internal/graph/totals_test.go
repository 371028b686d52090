package graph_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/ops"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// checkTotals requires the graph totals and both halves of
// ops.ForwardBackwardFLOPs to render exactly as symbolic.Add renders the
// same per-node and per-tensor expressions, passed one by one in graph
// order: the fold the totals must reproduce bucket for bucket.
func checkTotals(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	fwd, bwd := ops.ForwardBackwardFLOPs(g)
	var flops, bytes, fwdTerms, bwdTerms, params, io []symbolic.Expr
	for _, n := range g.Nodes() {
		flops = append(flops, n.FLOPs())
		bytes = append(bytes, n.Bytes())
		if strings.HasPrefix(n.Name, "bwd/") || strings.HasPrefix(n.Name, "update:") {
			bwdTerms = append(bwdTerms, n.FLOPs())
		} else {
			fwdTerms = append(fwdTerms, n.FLOPs())
		}
	}
	for _, tn := range g.Tensors() {
		switch tn.Kind {
		case graph.Param:
			params = append(params, tn.NumElements())
		case graph.Input:
			io = append(io, tn.Bytes())
		}
	}
	for _, c := range []struct {
		name string
		got  symbolic.Expr
		want []symbolic.Expr
	}{
		{"TotalFLOPs", g.TotalFLOPs(), flops},
		{"TotalBytes", g.TotalBytes(), bytes},
		{"ParamCount", g.ParamCount(), params},
		{"AlgorithmicIO", g.AlgorithmicIO(), io},
		{"forward FLOPs", fwd, fwdTerms},
		{"backward FLOPs", bwd, bwdTerms},
	} {
		if got, want := c.got.String(), symbolic.Add(c.want...).String(); got != want {
			t.Errorf("%s: %s\n got  %s\n want %s", label, c.name, got, want)
		}
	}
}

// TestTotalsMatchAdd checks the five domain graphs' totals against the
// term-by-term sum.
func TestTotalsMatchAdd(t *testing.T) {
	for _, d := range models.AllDomains {
		checkTotals(t, string(d), domainModel(d).Graph)
	}
}

// costOp is a test op whose FLOPs are entry flops of costTable and
// whose bytes are entry bytes, or with bytes < 0 the default IOBytes
// model, so random graphs can carry costs with non-integer coefficients.
// It is comparable, so the graph's derivation memo caches it.
type costOp struct{ flops, bytes int }

func (o costOp) Kind() string                    { return "cost" }
func (o costOp) FLOPs(*graph.Node) symbolic.Expr { return costTable[o.flops] }
func (o costOp) Bytes(n *graph.Node) symbolic.Expr {
	if o.bytes < 0 {
		return graph.IOBytes(n)
	}
	return costTable[o.bytes]
}

var costTable = func() []symbolic.Expr {
	p, q, r := symbolic.S("p"), symbolic.S("q"), symbolic.S("r")
	coefs := []float64{0.1, 1.0 / 3, -0.5, 1e-7, 2, 0.7}
	units := []symbolic.Expr{p, q, symbolic.Mul(p, q), symbolic.Pow(r, symbolic.C(2)), symbolic.Sqrt(p), symbolic.Max(q, r)}
	rng := rand.New(rand.NewSource(7))
	var table []symbolic.Expr
	for i := 0; i < 24; i++ {
		var terms []symbolic.Expr
		for j := 0; j < 1+rng.Intn(4); j++ {
			terms = append(terms, symbolic.Mul(symbolic.C(coefs[rng.Intn(len(coefs))]), units[rng.Intn(len(units))]))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, symbolic.C(coefs[rng.Intn(len(coefs))]))
		}
		table = append(table, symbolic.Add(terms...))
	}
	return table
}()

// randomCostGraph builds a random DAG of costOp nodes over
// tensors whose dims carry non-integer coefficients, with about half
// of the nodes named as backward or update nodes.
func randomCostGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	p, q := symbolic.S("p"), symbolic.S("q")
	dims := []symbolic.Expr{
		symbolic.Mul(symbolic.C(0.1), p), symbolic.Mul(symbolic.C(1.0/3), q),
		symbolic.Mul(symbolic.C(1e-7), p, q), symbolic.C(3), p,
	}
	shape := func() tensor.Shape {
		s := make(tensor.Shape, 1+rng.Intn(2))
		for i := range s {
			s[i] = dims[rng.Intn(len(dims))]
		}
		return s
	}
	dtypes := []tensor.DType{tensor.F32, tensor.F16}
	g := graph.New(fmt.Sprintf("random%d", seed))
	var avail []*graph.Tensor
	for i := 0; i < 30; i++ {
		kind := graph.Input
		if i%2 == 1 {
			kind = graph.Param
		}
		avail = append(avail, g.NewTensor(fmt.Sprintf("t%d", i), kind, dtypes[rng.Intn(2)], shape()))
	}
	prefixes := []string{"", "", "bwd/", "update:"}
	for i := 0; i < 300; i++ {
		var in []*graph.Tensor
		for j := 0; j < 1+rng.Intn(2); j++ {
			in = append(in, avail[rng.Intn(len(avail))])
		}
		out := g.NewTensor(fmt.Sprintf("a%d", i), graph.Activation, dtypes[rng.Intn(2)], shape())
		op := costOp{rng.Intn(len(costTable)), rng.Intn(len(costTable)+1) - 1}
		g.MustAddNode(fmt.Sprintf("%sn%d", prefixes[rng.Intn(len(prefixes))], i), "", op, in, []*graph.Tensor{out})
		avail = append(avail, out)
	}
	return g
}

// TestTotalsMatchAddRandom checks the totals of random graphs whose costs
// and sizes carry coefficients such as 0.1, 1/3, -0.5 and 1e-7, where a
// bucket summed in another order would render differently.
func TestTotalsMatchAddRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkTotals(t, fmt.Sprintf("seed %d", seed), randomCostGraph(seed))
	}
}
