package symbolic

import (
	"math"
	"math/rand"
	"testing"
)

// TestSumOfMatchesAdd folds random index sequences over a table of sums
// with non-integer coefficients, where a bucket summed in another order
// would render differently, and requires SumOf to render as Add over the
// same arguments.
func TestSumOfMatchesAdd(t *testing.T) {
	x, y, z := S("x"), S("y"), S("z")
	units := []Expr{x, y, Mul(x, y), Pow(z, C(2)), Sqrt(x), Max(y, z), Add(x, z)}
	coefs := []float64{0.1, 1.0 / 3, -0.5, 1e-7, 2, 0.7, 1}
	rng := rand.New(rand.NewSource(3))
	var table []Expr
	for i := 0; i < 40; i++ {
		var terms []Expr
		for j := 0; j < 1+rng.Intn(4); j++ {
			terms = append(terms, Mul(C(coefs[rng.Intn(len(coefs))]), units[rng.Intn(len(units))]))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, C(coefs[rng.Intn(len(coefs))]))
		}
		table = append(table, Add(terms...))
	}
	table = append(table, Zero, C(-0.5), x)
	for trial := 0; trial < 200; trial++ {
		ix := make([]int32, rng.Intn(300))
		args := make([]Expr, len(ix))
		for i := range ix {
			ix[i] = int32(rng.Intn(len(table)))
			args[i] = table[ix[i]]
		}
		if got, want := SumOf(table, ix).String(), Add(args...).String(); got != want {
			t.Fatalf("trial %d: SumOf renders\n %s\nAdd renders\n %s", trial, got, want)
		}
	}
}

// TestEqualMatchesKeys checks that Equal, which builds no key, agrees
// with comparing keys on constants that format alike or apart (signed
// zeros, NaNs, infinities, neighbouring floats), a symbol named like a
// number, and compound expressions.
func TestEqualMatchesKeys(t *testing.T) {
	x, y := S("x"), S("y")
	exprs := []Expr{
		C(0), C(math.Copysign(0, -1)), C(math.NaN()), C(-math.NaN()), C(math.Inf(1)), C(math.Inf(-1)),
		C(1), C(math.Nextafter(1, 2)), C(3), S("3"), x, y,
		Mul(C(2), x), Mul(C(2), y), Mul(x, y), Add(x, y), Add(x, C(1)), Pow(x, C(2)), Max(x, y), Min(x, y), Ceil(x),
	}
	for _, a := range exprs {
		for _, b := range exprs {
			if got, want := Equal(a, b), a.key() == b.key(); got != want {
				t.Errorf("Equal(%v, %v) = %v; keys %q and %q", a, b, got, a.key(), b.key())
			}
		}
	}
}
