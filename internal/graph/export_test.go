package graph

import "catamount/internal/symbolic"

// CheckFootprint exposes the oracle and replay checks to the external
// domain tests, which import the model builders and so cannot live in
// this package.
var CheckFootprint = checkFootprint

// ExactOptimum is exactOptimum with g's tensor sizes evaluated under env.
func ExactOptimum(g *Graph, env symbolic.Env, bound float64) (opt float64, states int, ok bool) {
	return exactOptimum(g, tensorBytes(g, env), bound)
}

// DeriveMemoSize reports how many operand signatures and FLOPs entries
// g's derivation memo holds, and whether g still holds the memo.
func DeriveMemoSize(g *Graph) (sigs, flops int, ok bool) {
	if g.memo == nil {
		return 0, 0, false
	}
	return len(g.memo.io), len(g.memo.flops), true
}
