package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"catamount/internal/hw"
)

// TestGraphRooflineMatchesAccelerator pins the default backend to the
// legacy formula bit-for-bit: every golden table rides on this.
func TestGraphRooflineMatchesAccelerator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := GraphRoofline{}
	for _, acc := range hw.Catalog() {
		for i := 0; i < 200; i++ {
			f := math.Pow(10, 9+6*rng.Float64())
			b := math.Pow(10, 8+5*rng.Float64())
			c := GraphCosts(f, b)
			if got, want := m.StepTime(acc, c), acc.StepTime(f, b); got != want {
				t.Fatalf("%s: StepTime(%g, %g) = %g, accelerator says %g", acc.Name, f, b, got, want)
			}
			wantBound := BoundBandwidth
			if acc.ComputeBound(f, b) {
				wantBound = BoundCompute
			}
			if got := m.Bound(acc, c); got != wantBound {
				t.Fatalf("%s: Bound(%g, %g) = %s, accelerator says %s", acc.Name, f, b, got, wantBound)
			}
		}
	}
}

// TestPerOpDominance checks the subsystem's structural guarantee on random
// op mixes: the per-op estimate is never faster than the graph-level one,
// because every per-op efficiency is ≤ the achievable rate and sum-of-max
// dominates max-of-sum.
func TestPerOpDominance(t *testing.T) {
	kinds := []string{"matmul", "batched-matmul", "conv2d", "sigmoid", "tanh",
		"softmax", "embedding", "embedding-grad", "grad-accum", "sgd-momentum",
		"add", "reshape", "transpose", "some-unknown-kind"}
	rng := rand.New(rand.NewSource(7))
	graph, perop := GraphRoofline{}, PerOpRoofline{}
	for _, acc := range hw.Catalog() {
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(40)
			c := Costs{Ops: make([]OpCost, 0, n)}
			for i := 0; i < n; i++ {
				op := OpCost{
					Kind:  kinds[rng.Intn(len(kinds))],
					FLOPs: math.Pow(10, 6+6*rng.Float64()),
					Bytes: math.Pow(10, 5+5*rng.Float64()),
				}
				if rng.Intn(5) == 0 {
					op.FLOPs = 0 // data-movement op
				}
				if rng.Intn(7) == 0 {
					op.Bytes = 0 // view op
				}
				c.FLOPs += op.FLOPs
				c.Bytes += op.Bytes
				c.Ops = append(c.Ops, op)
			}
			tg := graph.StepTime(acc, c)
			tp := perop.StepTime(acc, c)
			if math.IsNaN(tp) || math.IsInf(tp, 0) {
				t.Fatalf("%s: per-op time not finite: %v", acc.Name, tp)
			}
			if tp < tg {
				t.Fatalf("%s: per-op %.6g faster than graph %.6g (ops=%d)", acc.Name, tp, tg, n)
			}
		}
	}
}

// TestZeroCostsWellDefined: an all-zero step is instantaneous and finite
// under both backends (the divide-by-zero satellite's costmodel half).
func TestZeroCostsWellDefined(t *testing.T) {
	acc := hw.TargetAccelerator()
	zero := Costs{Ops: []OpCost{{Kind: "matmul"}, {Kind: "reshape"}}}
	for _, m := range []Model{GraphRoofline{}, PerOpRoofline{}} {
		if got := m.StepTime(acc, zero); got != 0 {
			t.Fatalf("%s: zero-cost step time = %v, want 0", m.Name(), got)
		}
		if got := m.StepTime(acc, Costs{}); got != 0 {
			t.Fatalf("%s: empty cost step time = %v, want 0", m.Name(), got)
		}
		if b := m.Bound(acc, zero); b != BoundCompute && b != BoundBandwidth {
			t.Fatalf("%s: zero-cost bound = %q", m.Name(), b)
		}
	}
}

// TestPerOpFallsBackWithoutOps: a cost vector without per-op detail still
// yields a well-defined (graph-level) estimate.
func TestPerOpFallsBackWithoutOps(t *testing.T) {
	acc := hw.TargetAccelerator()
	c := GraphCosts(1e12, 1e10)
	if got, want := (PerOpRoofline{}).StepTime(acc, c), acc.StepTime(1e12, 1e10); got != want {
		t.Fatalf("fallback StepTime = %g, want %g", got, want)
	}
}

// TestParseAliases: every documented alias resolves, canonicalizes, and
// round-trips through Name; unknown names fail.
func TestParseAliases(t *testing.T) {
	cases := map[string]string{
		"":                GraphName,
		"graph":           GraphName,
		"Graph-Roofline":  GraphName,
		" roofline ":      GraphName,
		"perop":           PerOpName,
		"per-op":          PerOpName,
		"PerOp-Roofline":  PerOpName,
		"per-op-roofline": PerOpName,
	}
	for in, want := range cases {
		m, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if m.Name() != want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", in, m.Name(), want)
		}
		canon, err := CanonicalName(in)
		if err != nil || canon != want {
			t.Fatalf("CanonicalName(%q) = %q, %v; want %q", in, canon, err, want)
		}
	}
	if _, err := Parse("tpu-magic"); err == nil {
		t.Fatal("Parse accepted an unknown backend")
	}
	if _, err := CanonicalName("nope"); err == nil {
		t.Fatal("CanonicalName accepted an unknown backend")
	}
}

// TestClassTableSane: every efficiency multiplier sits in (0, 1] — the
// precondition of the dominance proof.
func TestClassTableSane(t *testing.T) {
	check := func(name string, cl Class) {
		if !(cl.ComputeEff > 0 && cl.ComputeEff <= 1) {
			t.Fatalf("%s: ComputeEff %v outside (0, 1]", name, cl.ComputeEff)
		}
		if !(cl.MemEff > 0 && cl.MemEff <= 1) {
			t.Fatalf("%s: MemEff %v outside (0, 1]", name, cl.MemEff)
		}
	}
	for kind, cl := range classes {
		check(kind, cl)
	}
	check("default", defaultClass)
	check("lookup-unknown", ClassFor("never-heard-of-it"))
}

// TestInfos: the listing covers every canonical name, flags exactly one
// default, and lists aliases deterministically.
func TestInfos(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos has %d entries, Names %d", len(infos), len(Names()))
	}
	defaults := 0
	for i, info := range infos {
		if info.Name != Names()[i] {
			t.Fatalf("Infos[%d].Name = %q, want %q", i, info.Name, Names()[i])
		}
		if info.Default {
			defaults++
		}
		for _, alias := range info.Aliases {
			canon, err := CanonicalName(alias)
			if err != nil || canon != info.Name {
				t.Fatalf("alias %q of %q resolves to %q, %v", alias, info.Name, canon, err)
			}
		}
	}
	if defaults != 1 {
		t.Fatalf("%d default backends, want exactly 1", defaults)
	}
	if Default().Name() != GraphName {
		t.Fatalf("Default() is %q, want %q", Default().Name(), GraphName)
	}
}

// batchOf lays per-row cost vectors out as one CostsBatch. Every row must
// carry the same op kinds in the same order (or none); each node becomes
// its own distinct op.
func batchOf(rows []Costs) *CostsBatch {
	c := &CostsBatch{Rows: len(rows)}
	for _, r := range rows {
		c.FLOPs = append(c.FLOPs, r.FLOPs)
		c.Bytes = append(c.Bytes, r.Bytes)
	}
	if len(rows) == 0 || len(rows[0].Ops) == 0 {
		return c
	}
	n := len(rows[0].Ops)
	ob := &OpsBatch{Rows: len(rows), Uniq: make([]float64, 2*n*len(rows))}
	for i, op := range rows[0].Ops {
		ob.Distinct = append(ob.Distinct, DistinctOp{Class: ClassFor(op.Kind), FLOPIx: int32(2 * i), ByteIx: int32(2*i + 1)})
		ob.NodeOp = append(ob.NodeOp, int32(i))
		for r, row := range rows {
			ob.Uniq[2*i*len(rows)+r] = row.Ops[i].FLOPs
			ob.Uniq[(2*i+1)*len(rows)+r] = row.Ops[i].Bytes
		}
	}
	c.Ops = ob
	return c
}

// TestSubbatchSweepMatchesHW: with the graph backend the costmodel sweep
// reproduces hw.SubbatchSweep point-for-point, footprints aside (the
// costmodel sweep evaluates none).
func TestSubbatchSweepMatchesHW(t *testing.T) {
	acc := hw.TargetAccelerator()
	hwEval := func(b float64) (float64, float64, float64, error) {
		return 2e9 * b, 1e9 + 5e7*b, 0, nil
	}
	subbatches := hw.PowersOfTwo(10)
	var rows []Costs
	for _, b := range subbatches {
		f, by, _, _ := hwEval(b)
		rows = append(rows, GraphCosts(f, by))
	}
	want, err := hw.SubbatchSweep(hwEval, acc, subbatches)
	if err != nil {
		t.Fatal(err)
	}
	got := SubbatchSweep(batchOf(rows), subbatches, acc, GraphRoofline{})
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestSubbatchSweepPerOpNotFaster: the per-op backend's sweep is pointwise
// no faster than the graph backend's.
func TestSubbatchSweepPerOpNotFaster(t *testing.T) {
	acc := hw.TargetAccelerator()
	subbatches := hw.PowersOfTwo(8)
	var rows []Costs
	for _, b := range subbatches {
		ops := []OpCost{
			{Kind: "matmul", FLOPs: 1.6e9 * b, Bytes: 4e7 * b},
			{Kind: "sigmoid", FLOPs: 4e8 * b, Bytes: 1e9},
			{Kind: "embedding", Bytes: 1e7 * b},
		}
		c := Costs{Ops: ops}
		for _, op := range ops {
			c.FLOPs += op.FLOPs
			c.Bytes += op.Bytes
		}
		rows = append(rows, c)
	}
	batch := batchOf(rows)
	g := SubbatchSweep(batch, subbatches, acc, GraphRoofline{})
	p := SubbatchSweep(batch, subbatches, acc, PerOpRoofline{})
	for i := range g {
		if p[i].StepTime < g[i].StepTime {
			t.Fatalf("subbatch %g: per-op %.6g faster than graph %.6g",
				g[i].Subbatch, p[i].StepTime, g[i].StepTime)
		}
		if want := (PerOpRoofline{}).StepTime(acc, rows[i]); math.Float64bits(p[i].StepTime) != math.Float64bits(want) {
			t.Fatalf("subbatch %g: batched per-op %v, scalar %v", g[i].Subbatch, p[i].StepTime, want)
		}
	}
}
