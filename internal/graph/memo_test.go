package graph_test

import (
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/ops"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// checkFreshCosts seals g and requires every node's FLOPs and Bytes, as
// the graph derived them through its memo, to render as the op derives
// them afresh. With the memo dropped by the seal, the op's own FLOPs and
// Bytes are the unmemoized derivation.
func checkFreshCosts(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	g.WarmCosts()
	if _, _, ok := graph.DeriveMemoSize(g); ok {
		t.Fatalf("%s: WarmCosts kept the derivation memo", label)
	}
	for _, n := range g.Nodes() {
		if got, want := n.FLOPs().String(), n.Op.FLOPs(n).String(); got != want {
			t.Fatalf("%s: node %s (%s): FLOPs %s, fresh derivation %s", label, n.Name, n.Op.Kind(), got, want)
		}
		if got, want := n.Bytes().String(), n.Op.Bytes(n).String(); got != want {
			t.Fatalf("%s: node %s (%s): Bytes %s, fresh derivation %s", label, n.Name, n.Op.Kind(), got, want)
		}
	}
}

// TestNodeCostsMatchFreshDerivation is the memo's oracle over the domain
// graphs: every node of all five.
func TestNodeCostsMatchFreshDerivation(t *testing.T) {
	for _, d := range models.AllDomains {
		checkFreshCosts(t, string(d), domainModel(d).Graph)
	}
}

// TestDeriveMemoKeys builds nodes whose operands a looser memo key would
// confuse, and checks that each derives as it would afresh and that the
// pairs that must differ do.
func TestDeriveMemoKeys(t *testing.T) {
	p, q, r := symbolic.S("p"), symbolic.S("q"), symbolic.S("r")
	t.Run("equal sizes share", func(t *testing.T) {
		g := graph.New("share")
		var nodes []*graph.Node
		for i := 0; i < 3; i++ {
			x := g.NewTensor("x", graph.Input, tensor.F32, tensor.Of(p, q))
			y := g.NewTensor("y", graph.Activation, tensor.F32, tensor.Of(p, q))
			nodes = append(nodes, g.MustAddNode("relu", "", ops.ReLUOp, []*graph.Tensor{x}, []*graph.Tensor{y}))
		}
		for _, n := range nodes {
			n.FLOPs()
			n.Bytes()
		}
		if sigs, flops, _ := graph.DeriveMemoSize(g); sigs != 1 || flops != 1 {
			t.Fatalf("memo holds %d signatures and %d FLOPs entries, want 1 and 1", sigs, flops)
		}
		checkFreshCosts(t, "share", g)
	})
	t.Run("dtype", func(t *testing.T) {
		g := graph.New("dtype")
		var nodes []*graph.Node
		for _, dt := range []tensor.DType{tensor.F16, tensor.F32} {
			x := g.NewTensor("x", graph.Input, dt, tensor.Of(p, q))
			y := g.NewTensor("y", graph.Activation, dt, tensor.Of(p, q))
			nodes = append(nodes, g.MustAddNode("relu", "", ops.ReLUOp, []*graph.Tensor{x}, []*graph.Tensor{y}))
		}
		checkFreshCosts(t, "dtype", g)
		if a, b := nodes[0].Bytes().String(), nodes[1].Bytes().String(); a == b {
			t.Fatalf("f16 and f32 nodes share bytes %s", a)
		}
	})
	t.Run("matmul transposes", func(t *testing.T) {
		g := graph.New("matmul")
		a := g.NewTensor("a", graph.Input, tensor.F32, tensor.Of(p, q))
		b := g.NewTensor("b", graph.Param, tensor.F32, tensor.Of(q, r))
		var nodes []*graph.Node
		for _, op := range []ops.MatMul{{TransA: true}, {}} {
			y := g.NewTensor("y", graph.Activation, tensor.F32, tensor.Of(p, r))
			nodes = append(nodes, g.MustAddNode("mm", "", op, []*graph.Tensor{a, b}, []*graph.Tensor{y}))
		}
		checkFreshCosts(t, "matmul", g)
		if f0, f1 := nodes[0].FLOPs().String(), nodes[1].FLOPs().String(); f0 == f1 {
			t.Fatalf("MatMul{TransA: true} and MatMul{} share FLOPs %s", f0)
		}
	})
	t.Run("input/output split", func(t *testing.T) {
		g := graph.New("split")
		a := g.NewTensor("a", graph.Input, tensor.F32, tensor.Of(p))
		b := g.NewTensor("b", graph.Input, tensor.F32, tensor.Of(q))
		c := g.NewTensor("c", graph.Activation, tensor.F32, tensor.Of(r))
		b2 := g.NewTensor("b2", graph.Activation, tensor.F32, tensor.Of(q))
		c2 := g.NewTensor("c2", graph.Activation, tensor.F32, tensor.Of(r))
		add := ops.Binary{Fn: "add"} // FLOPs: the first output's elements
		n1 := g.MustAddNode("two-in", "", add, []*graph.Tensor{a, b}, []*graph.Tensor{c})
		n2 := g.MustAddNode("one-in", "", add, []*graph.Tensor{a}, []*graph.Tensor{b2, c2})
		checkFreshCosts(t, "split", g)
		if f1, f2 := n1.FLOPs().String(), n2.FLOPs().String(); f1 == f2 {
			t.Fatalf("differently split operands share FLOPs %s", f1)
		}
	})
	t.Run("transpose", func(t *testing.T) {
		// Transpose holds its permutation in a slice, so its value cannot
		// key a map; it must derive uncached rather than panic.
		g := graph.New("transpose")
		x := g.NewTensor("x", graph.Input, tensor.F32, tensor.Of(p, q))
		for i := 0; i < 2; i++ {
			y := g.NewTensor("y", graph.Activation, tensor.F32, tensor.Of(q, p))
			g.MustAddNode("t", "", ops.Transpose{Perm: []int{1, 0}}, []*graph.Tensor{x}, []*graph.Tensor{y})
		}
		checkFreshCosts(t, "transpose", g)
	})
}

// TestAddNodeRejectsForeignTensor: size ids number one graph's sizes, so
// a tensor from another graph would key the memo by a foreign id.
func TestAddNodeRejectsForeignTensor(t *testing.T) {
	g, other := graph.New("g"), graph.New("other")
	x := other.NewTensor("x", graph.Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", graph.Activation, tensor.F32, tensor.Of(4))
	if _, err := g.AddNode("n", "", ops.ReLUOp, []*graph.Tensor{x}, []*graph.Tensor{y}); err == nil {
		t.Fatal("AddNode accepted a tensor of another graph")
	}
}
