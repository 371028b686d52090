package symbolic

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oldSplitCoef is splitCoef as it was before the unit shared the mul's
// factors: the unit rebuilt through Mul from a copy of them. It is the
// oracle the shortcut must match.
func oldSplitCoef(e Expr) (float64, Expr) {
	switch v := e.(type) {
	case Const:
		return float64(v), nil
	case mul:
		if v.coef == 1 {
			return 1, v
		}
		rest := make([]Expr, len(v.factors))
		copy(rest, v.factors)
		return v.coef, Mul(rest...)
	}
	return 1, e
}

// oldAddString renders the sum of args as Add and renderAdd did with
// oldSplitCoef: the same like-term buckets, order and "a - b" rendering.
func oldAddString(args ...Expr) string {
	type bucket struct {
		coef float64
		unit Expr
	}
	buckets := make(map[string]*bucket)
	var push func(e Expr)
	push = func(e Expr) {
		if a, ok := e.(add); ok {
			for _, t := range a.terms {
				push(t)
			}
			return
		}
		coef, unit := oldSplitCoef(e)
		k := ""
		if unit != nil {
			k = unit.key()
		}
		b, ok := buckets[k]
		if !ok {
			b = &bucket{unit: unit}
			buckets[k] = b
		}
		b.coef += coef
	}
	for _, a := range args {
		push(a)
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var terms []Expr
	for _, k := range keys {
		b := buckets[k]
		switch {
		case b.coef == 0:
		case b.unit == nil:
			terms = append(terms, Const(b.coef))
		case b.coef == 1:
			terms = append(terms, b.unit)
		default:
			terms = append(terms, Mul(Const(b.coef), b.unit))
		}
	}
	switch len(terms) {
	case 0:
		return Zero.String()
	case 1:
		return terms[0].String()
	}
	var sb strings.Builder
	for i, t := range terms {
		coef, _ := oldSplitCoef(t)
		if i == 0 {
			sb.WriteString(t.String())
			continue
		}
		if coef < 0 {
			neg := Mul(Const(-1), t)
			ns := neg.String()
			if _, ok := neg.(add); ok {
				ns = "(" + ns + ")"
			}
			sb.WriteString(" - ")
			sb.WriteString(ns)
			continue
		}
		sb.WriteString(" + ")
		sb.WriteString(t.String())
	}
	return sb.String()
}

// splitCoefs are the coefficients random expressions are scaled by, so the
// oracle sees negative, fractional and exponent-formatted ones besides the
// small integers randExpr folds into its products.
var splitCoefs = []float64{-1, 2, -0.5, 0.1, 1e+21, -3e-7, 1.5e+300}

// walk calls fn on e and every subexpression of it.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	switch v := e.(type) {
	case add:
		for _, t := range v.terms {
			walk(t, fn)
		}
	case mul:
		for _, f := range v.factors {
			walk(f, fn)
		}
	case pow:
		walk(v.base, fn)
		walk(v.exp, fn)
	case call:
		for _, a := range v.args {
			walk(a, fn)
		}
	}
}

func TestSplitCoefMatchesRebuiltUnit(t *testing.T) {
	const seeds = 10000
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		roots := []Expr{e, Mul(C(splitCoefs[r.Intn(len(splitCoefs))]), e)}
		for _, root := range roots {
			walk(root, func(x Expr) {
				m, ok := x.(mul)
				if !ok || m.coef == 1 {
					return
				}
				checked++
				coef, unit := splitCoef(m)
				wantCoef, want := oldSplitCoef(m)
				if coef != wantCoef {
					t.Fatalf("seed %d: splitCoef(%v) coef = %v, want %v", seed, m, coef, wantCoef)
				}
				if unit.String() != want.String() {
					t.Fatalf("seed %d: splitCoef(%v) unit = %q, want %q", seed, m, unit.String(), want.String())
				}
				if !Equal(unit, want) {
					t.Fatalf("seed %d: splitCoef(%v) unit %v not Equal to %v", seed, m, unit, want)
				}
				if reflect.TypeOf(unit) != reflect.TypeOf(want) {
					t.Fatalf("seed %d: splitCoef(%v) unit type %T, want %T", seed, m, unit, want)
				}
			})
		}
	}
	t.Logf("%d products with a coefficient other than 1 checked", checked)
	if checked < seeds {
		t.Fatalf("only %d products with a coefficient other than 1 over %d seeds", checked, seeds)
	}
}

func TestAddRendersAsWithRebuiltUnits(t *testing.T) {
	for seed := int64(0); seed < 10000; seed++ {
		r := rand.New(rand.NewSource(seed))
		terms := make([]Expr, 1+r.Intn(6))
		for i := range terms {
			terms[i] = randExpr(r, 3)
			if r.Intn(2) == 0 {
				terms[i] = Mul(C(splitCoefs[r.Intn(len(splitCoefs))]), terms[i])
			}
		}
		if got, want := Add(terms...).String(), oldAddString(terms...); got != want {
			t.Fatalf("seed %d: Add(%v) = %q, want %q", seed, terms, got, want)
		}
	}
}
