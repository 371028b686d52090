// Package symbolic implements a small computer-algebra system for the
// polynomial-with-functions expressions that compute-graph analysis needs.
//
// It is the Go counterpart of the sympy subset used by the Catamount artifact
// of Hestness et al. (PPoPP 2019): expressions are built from named symbols
// (tensor dimensions such as batch size or hidden width), rational constants,
// n-ary sums and products, real powers, and a few irregular functions
// (max, min, ceil, floor, log2). Every constructor returns a canonically
// simplified, immutable expression, so structural equality can be tested by
// comparing canonical string forms.
//
// All symbols are assumed to denote positive quantities (tensor dimensions),
// which licenses simplifications such as (x*y)^e == x^e * y^e.
package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Env binds symbol names to concrete values for evaluation.
type Env map[string]float64

// Expr is an immutable symbolic expression in canonical form.
type Expr interface {
	// Eval computes the numeric value of the expression under env.
	// It returns an error if any symbol in the expression is unbound.
	Eval(env Env) (float64, error)
	// Subs returns the expression with each named symbol replaced by the
	// given expression. The result is re-simplified.
	Subs(bind map[string]Expr) Expr
	// CollectSymbols adds every symbol name appearing in the expression
	// to the set.
	CollectSymbols(set map[string]bool)
	// String renders the canonical form.
	String() string

	// key returns the canonical ordering/identity key.
	key() string
}

// Zero and One are the canonical constants 0 and 1.
var (
	Zero = Const(0)
	One  = Const(1)
)

// ---------------------------------------------------------------------------
// Constants

// Const is a numeric constant.
type Const float64

// C returns a constant expression.
func C(v float64) Expr { return Const(v) }

// Eval implements Expr.
func (c Const) Eval(Env) (float64, error) { return float64(c), nil }

// Subs implements Expr.
func (c Const) Subs(map[string]Expr) Expr { return c }

// CollectSymbols implements Expr.
func (c Const) CollectSymbols(map[string]bool) {}

func (c Const) String() string {
	return strconv.FormatFloat(float64(c), 'g', -1, 64)
}

func (c Const) key() string { return "#" + c.String() }

// ---------------------------------------------------------------------------
// Symbols

// Symbol is a named positive-valued variable, such as a tensor dimension.
type Symbol string

// S returns a symbol expression with the given name.
func S(name string) Expr { return Symbol(name) }

// Eval implements Expr.
func (s Symbol) Eval(env Env) (float64, error) {
	v, ok := env[string(s)]
	if !ok {
		return 0, fmt.Errorf("symbolic: unbound symbol %q", string(s))
	}
	return v, nil
}

// Subs implements Expr.
func (s Symbol) Subs(bind map[string]Expr) Expr {
	if e, ok := bind[string(s)]; ok {
		return e
	}
	return s
}

// CollectSymbols implements Expr.
func (s Symbol) CollectSymbols(set map[string]bool) { set[string(s)] = true }

func (s Symbol) String() string { return string(s) }

func (s Symbol) key() string { return "$" + string(s) }

// ---------------------------------------------------------------------------
// Sums

type add struct {
	terms []Expr // canonical: sorted, len >= 2, no nested adds, no zero terms
	str   string
}

// Add returns the canonical sum of the arguments. Like terms are collected:
// Add(x, x, C(2)) == Mul(C(2), x) + 2.
func Add(args ...Expr) Expr {
	type bucket struct {
		coef float64
		unit Expr // product part with coefficient 1; nil for pure constant
	}
	buckets := make(map[string]*bucket)
	order := make([]string, 0, len(args))
	var push func(e Expr)
	push = func(e Expr) {
		if a, ok := e.(add); ok {
			for _, t := range a.terms {
				push(t)
			}
			return
		}
		coef, unit := splitCoef(e)
		k := ""
		if unit != nil {
			k = unit.key()
		}
		b, ok := buckets[k]
		if !ok {
			b = &bucket{unit: unit}
			buckets[k] = b
			order = append(order, k)
		}
		b.coef += coef
	}
	for _, a := range args {
		push(a)
	}
	terms := make([]Expr, 0, len(buckets))
	for _, k := range sortedKeys(order) {
		b := buckets[k]
		if b.coef == 0 {
			continue
		}
		if b.unit == nil {
			terms = append(terms, Const(b.coef))
			continue
		}
		if b.coef == 1 {
			terms = append(terms, b.unit)
			continue
		}
		terms = append(terms, Mul(Const(b.coef), b.unit))
	}
	switch len(terms) {
	case 0:
		return Zero
	case 1:
		return terms[0]
	}
	return add{terms: terms, str: renderAdd(terms)}
}

// Sub returns a - b.
func Sub(a, b Expr) Expr { return Add(a, Mul(Const(-1), b)) }

// Eval implements Expr.
func (a add) Eval(env Env) (float64, error) {
	var sum float64
	for _, t := range a.terms {
		v, err := t.Eval(env)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// Subs implements Expr.
func (a add) Subs(bind map[string]Expr) Expr {
	out := make([]Expr, len(a.terms))
	for i, t := range a.terms {
		out[i] = t.Subs(bind)
	}
	return Add(out...)
}

// CollectSymbols implements Expr.
func (a add) CollectSymbols(set map[string]bool) {
	for _, t := range a.terms {
		t.CollectSymbols(set)
	}
}

func (a add) String() string { return a.str }

func (a add) key() string { return "+" + a.str }

func renderAdd(terms []Expr) string {
	var sb strings.Builder
	for i, t := range terms {
		coef, _ := splitCoef(t)
		s := t.String()
		if i == 0 {
			sb.WriteString(s)
			continue
		}
		if coef < 0 {
			// Render "a - b" instead of "a + -1*b". When the negation
			// unwraps to a bare sum (e.g. -1*(c - d) -> c - d), it must be
			// parenthesized to survive re-parsing.
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
		sb.WriteString(s)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Products

type mul struct {
	coef    float64 // never 0; omit-if-1 handled at render time
	factors []Expr  // canonical: sorted, no consts, no nested muls, len >= 1
	str     string
}

// Mul returns the canonical product of the arguments. Powers of identical
// bases are merged: Mul(x, x) == Pow(x, C(2)).
func Mul(args ...Expr) Expr {
	coef := 1.0
	type entry struct {
		base Expr
		exp  []Expr // summed exponents
	}
	entries := make(map[string]*entry)
	var push func(e Expr)
	push = func(e Expr) {
		switch v := e.(type) {
		case Const:
			coef *= float64(v)
		case mul:
			coef *= v.coef
			for _, f := range v.factors {
				push(f)
			}
		case pow:
			k := v.base.key()
			en, ok := entries[k]
			if !ok {
				en = &entry{base: v.base}
				entries[k] = en
			}
			en.exp = append(en.exp, v.exp)
		default:
			k := e.key()
			en, ok := entries[k]
			if !ok {
				en = &entry{base: e}
				entries[k] = en
			}
			en.exp = append(en.exp, One)
		}
	}
	for _, a := range args {
		push(a)
	}
	if coef == 0 {
		return Zero
	}
	factors := make([]Expr, 0, len(entries))
	for _, k := range sortedKeys(mapKeys(entries)) {
		en := entries[k]
		f := Pow(en.base, Add(en.exp...))
		switch fv := f.(type) {
		case Const:
			coef *= float64(fv)
		case mul:
			// Pow distributed over a product; merge its parts.
			coef *= fv.coef
			factors = append(factors, fv.factors...)
		default:
			factors = append(factors, f)
		}
	}
	sortByKey(factors)
	if len(factors) == 0 {
		return Const(coef)
	}
	if coef == 1 && len(factors) == 1 {
		return factors[0]
	}
	m := mul{coef: coef, factors: factors}
	m.str = renderMul(m)
	return m
}

// Div returns a / b, represented as a * b^-1.
func Div(a, b Expr) Expr { return Mul(a, Pow(b, Const(-1))) }

// Eval implements Expr.
func (m mul) Eval(env Env) (float64, error) {
	prod := m.coef
	for _, f := range m.factors {
		v, err := f.Eval(env)
		if err != nil {
			return 0, err
		}
		prod *= v
	}
	return prod, nil
}

// Subs implements Expr.
func (m mul) Subs(bind map[string]Expr) Expr {
	out := make([]Expr, 0, len(m.factors)+1)
	out = append(out, Const(m.coef))
	for _, f := range m.factors {
		out = append(out, f.Subs(bind))
	}
	return Mul(out...)
}

// CollectSymbols implements Expr.
func (m mul) CollectSymbols(set map[string]bool) {
	for _, f := range m.factors {
		f.CollectSymbols(set)
	}
}

func (m mul) String() string { return m.str }

func (m mul) key() string { return "*" + m.str }

func renderMul(m mul) string {
	parts := make([]string, 0, len(m.factors)+1)
	if m.coef != 1 {
		parts = append(parts, Const(m.coef).String())
	}
	for _, f := range m.factors {
		s := f.String()
		if _, ok := f.(add); ok {
			s = "(" + s + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "*")
}

// ---------------------------------------------------------------------------
// Powers

type pow struct {
	base Expr
	exp  Expr
	str  string
}

// Pow returns base raised to exp, simplified. Because all symbols denote
// positive dimensions, (x*y)^e distributes over the factors.
func Pow(base, exp Expr) Expr {
	if ec, ok := exp.(Const); ok {
		switch float64(ec) {
		case 0:
			return One
		case 1:
			return base
		}
		if bc, ok := base.(Const); ok {
			return Const(math.Pow(float64(bc), float64(ec)))
		}
	}
	switch b := base.(type) {
	case pow:
		return Pow(b.base, Mul(b.exp, exp))
	case mul:
		parts := make([]Expr, 0, len(b.factors)+1)
		parts = append(parts, Pow(Const(b.coef), exp))
		for _, f := range b.factors {
			parts = append(parts, Pow(f, exp))
		}
		return Mul(parts...)
	case Const:
		if ec, ok := exp.(Const); ok {
			return Const(math.Pow(float64(b), float64(ec)))
		}
	}
	p := pow{base: base, exp: exp}
	p.str = renderPow(p)
	return p
}

// Sqrt returns the square root of e.
func Sqrt(e Expr) Expr { return Pow(e, Const(0.5)) }

// Eval implements Expr.
func (p pow) Eval(env Env) (float64, error) {
	b, err := p.base.Eval(env)
	if err != nil {
		return 0, err
	}
	e, err := p.exp.Eval(env)
	if err != nil {
		return 0, err
	}
	return math.Pow(b, e), nil
}

// Subs implements Expr.
func (p pow) Subs(bind map[string]Expr) Expr {
	return Pow(p.base.Subs(bind), p.exp.Subs(bind))
}

// CollectSymbols implements Expr.
func (p pow) CollectSymbols(set map[string]bool) {
	p.base.CollectSymbols(set)
	p.exp.CollectSymbols(set)
}

func (p pow) String() string { return p.str }

func (p pow) key() string { return "^" + p.str }

func renderPow(p pow) string {
	b := p.base.String()
	switch p.base.(type) {
	case add, mul:
		b = "(" + b + ")"
	}
	e := p.exp.String()
	switch p.exp.(type) {
	case add, mul, pow:
		e = "(" + e + ")"
	default:
		if c, ok := p.exp.(Const); ok && float64(c) < 0 {
			e = "(" + e + ")"
		}
	}
	return b + "^" + e
}

// ---------------------------------------------------------------------------
// Irregular functions: max, min, ceil, floor, log2

type call struct {
	fn   string
	args []Expr
	str  string
}

// Max returns the maximum of the arguments, folding constants and
// flattening nested maxima.
func Max(args ...Expr) Expr { return extremum("max", args) }

// Min returns the minimum of the arguments, folding constants and
// flattening nested minima.
func Min(args ...Expr) Expr { return extremum("min", args) }

func extremum(fn string, args []Expr) Expr {
	flat := make([]Expr, 0, len(args))
	var push func(e Expr)
	push = func(e Expr) {
		if c, ok := e.(call); ok && c.fn == fn {
			for _, a := range c.args {
				push(a)
			}
			return
		}
		flat = append(flat, e)
	}
	for _, a := range args {
		push(a)
	}
	// Deduplicate structurally identical arguments and fold constants.
	seen := make(map[string]bool)
	uniq := make([]Expr, 0, len(flat))
	haveConst := false
	var cv float64
	for _, e := range flat {
		if c, ok := e.(Const); ok {
			v := float64(c)
			if !haveConst {
				haveConst, cv = true, v
			} else if fn == "max" && v > cv {
				cv = v
			} else if fn == "min" && v < cv {
				cv = v
			}
			continue
		}
		k := e.key()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	if haveConst {
		uniq = append(uniq, Const(cv))
	}
	if len(uniq) == 0 {
		return Zero
	}
	if len(uniq) == 1 {
		return uniq[0]
	}
	sortByKey(uniq)
	c := call{fn: fn, args: uniq}
	c.str = renderCall(c)
	return c
}

// Ceil returns the ceiling of e, folding constants.
func Ceil(e Expr) Expr {
	if c, ok := e.(Const); ok {
		return Const(math.Ceil(float64(c)))
	}
	c := call{fn: "ceil", args: []Expr{e}}
	c.str = renderCall(c)
	return c
}

// Floor returns the floor of e, folding constants.
func Floor(e Expr) Expr {
	if c, ok := e.(Const); ok {
		return Const(math.Floor(float64(c)))
	}
	c := call{fn: "floor", args: []Expr{e}}
	c.str = renderCall(c)
	return c
}

// Log2 returns the base-2 logarithm of e, folding constants.
func Log2(e Expr) Expr {
	if c, ok := e.(Const); ok {
		return Const(math.Log2(float64(c)))
	}
	c := call{fn: "log2", args: []Expr{e}}
	c.str = renderCall(c)
	return c
}

// Eval implements Expr.
func (c call) Eval(env Env) (float64, error) {
	vals := make([]float64, len(c.args))
	for i, a := range c.args {
		v, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	switch c.fn {
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case "ceil":
		return math.Ceil(vals[0]), nil
	case "floor":
		return math.Floor(vals[0]), nil
	case "log2":
		return math.Log2(vals[0]), nil
	}
	return 0, fmt.Errorf("symbolic: unknown function %q", c.fn)
}

// Subs implements Expr.
func (c call) Subs(bind map[string]Expr) Expr {
	out := make([]Expr, len(c.args))
	for i, a := range c.args {
		out[i] = a.Subs(bind)
	}
	switch c.fn {
	case "max":
		return Max(out...)
	case "min":
		return Min(out...)
	case "ceil":
		return Ceil(out[0])
	case "floor":
		return Floor(out[0])
	case "log2":
		return Log2(out[0])
	}
	nc := call{fn: c.fn, args: out}
	nc.str = renderCall(nc)
	return nc
}

// CollectSymbols implements Expr.
func (c call) CollectSymbols(set map[string]bool) {
	for _, a := range c.args {
		a.CollectSymbols(set)
	}
}

func (c call) String() string { return c.str }

func (c call) key() string { return "@" + c.str }

func renderCall(c call) string {
	parts := make([]string, len(c.args))
	for i, a := range c.args {
		parts[i] = a.String()
	}
	return c.fn + "(" + strings.Join(parts, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Helpers

// splitCoef factors e into a numeric coefficient and a unit-coefficient
// remainder. The remainder is nil when e is a pure constant.
//
// A mul's factors are already canonical, so the remainder is exactly what
// Mul(factors...) would rebuild: the lone factor, or a coefficient-1 mul
// sharing the same factors slice. Its rendering is the suffix of the mul's
// str after the first '*', since a formatted float never contains one.
func splitCoef(e Expr) (float64, Expr) {
	switch v := e.(type) {
	case Const:
		return float64(v), nil
	case mul:
		if v.coef == 1 {
			return 1, v
		}
		if len(v.factors) == 1 {
			return v.coef, v.factors[0]
		}
		unit := mul{coef: 1, factors: v.factors, str: v.str[strings.IndexByte(v.str, '*')+1:]}
		return v.coef, unit
	}
	return 1, e
}

// sortByKey sorts es by canonical key, building each key once rather than
// twice per comparison.
func sortByKey(es []Expr) {
	if len(es) < 2 {
		return
	}
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.key()
	}
	sort.Sort(keyOrder{keys, es})
}

// keyOrder sorts exprs by their precomputed keys.
type keyOrder struct {
	keys []string
	es   []Expr
}

func (o keyOrder) Len() int           { return len(o.keys) }
func (o keyOrder) Less(i, j int) bool { return o.keys[i] < o.keys[j] }
func (o keyOrder) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.es[i], o.es[j] = o.es[j], o.es[i]
}

func sortedKeys(keys []string) []string {
	out := make([]string, len(keys))
	copy(out, keys)
	sort.Strings(out)
	return out
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Equal reports whether two expressions have identical canonical forms.
func Equal(a, b Expr) bool { return a.key() == b.key() }

// Symbols returns the sorted list of symbol names appearing in e.
func Symbols(e Expr) []string {
	set := make(map[string]bool)
	e.CollectSymbols(set)
	out := mapKeys(set)
	sort.Strings(out)
	return out
}

// IsConst reports whether e is a constant, returning its value if so.
func IsConst(e Expr) (float64, bool) {
	c, ok := e.(Const)
	return float64(c), ok
}

// MustEval evaluates e and panics on unbound symbols. It is intended for
// analysis pipelines that have already validated their bindings.
func MustEval(e Expr, env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// Degree returns the maximum exponent with which sym appears in a
// polynomial expression, or 0 when sym does not appear. Non-polynomial
// structure (functions, symbolic exponents) contributes the degree of its
// arguments.
func Degree(e Expr, sym string) float64 {
	switch v := e.(type) {
	case Const:
		return 0
	case Symbol:
		if string(v) == sym {
			return 1
		}
		return 0
	case add:
		var d float64
		for _, t := range v.terms {
			if td := Degree(t, sym); td > d {
				d = td
			}
		}
		return d
	case mul:
		var d float64
		for _, f := range v.factors {
			d += Degree(f, sym)
		}
		return d
	case pow:
		if ec, ok := v.exp.(Const); ok {
			return Degree(v.base, sym) * float64(ec)
		}
		return Degree(v.base, sym)
	case call:
		var d float64
		for _, a := range v.args {
			if ad := Degree(a, sym); ad > d {
				d = ad
			}
		}
		return d
	}
	return 0
}

// PolyCoeff returns the sum of the coefficients of every additive term of e
// whose total degree in sym is exactly deg, with sym divided out. For
// example, PolyCoeff(3*x^2*y + 5*x^2, x, 2) == 3*y + 5.
// Terms that are not pure products (e.g. max(...)) are skipped.
func PolyCoeff(e Expr, sym string, deg float64) Expr {
	terms := []Expr{e}
	if a, ok := e.(add); ok {
		terms = a.terms
	}
	var acc []Expr
	for _, t := range terms {
		d := Degree(t, sym)
		if d != deg {
			continue
		}
		acc = append(acc, Div(t, Pow(S(sym), Const(deg))))
	}
	if len(acc) == 0 {
		return Zero
	}
	return Add(acc...)
}
