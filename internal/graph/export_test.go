package graph

// CheckFootprint exposes the oracle and replay checks to the external
// domain tests, which import the model builders and so cannot live in
// this package.
var CheckFootprint = checkFootprint

// DeriveMemoSize reports how many operand signatures and FLOPs entries
// g's derivation memo holds, and whether g still holds the memo.
func DeriveMemoSize(g *Graph) (sigs, flops int, ok bool) {
	if g.memo == nil {
		return 0, 0, false
	}
	return len(g.memo.io), len(g.memo.flops), true
}
