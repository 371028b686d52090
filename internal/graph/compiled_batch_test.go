package graph

import (
	"math"
	"testing"
)

// TestCompiledDedup pins the program-deduplication invariant: a chain
// graph of repeated layers compiles to far fewer unique programs than
// nodes and tensors, with one index per node and tensor.
func TestCompiledDedup(t *testing.T) {
	g := buildChainGraph(64)
	c := Compile(g)

	nodes, tensors := len(g.Nodes()), len(g.Tensors())
	if c.NumCostPrograms() >= 2*nodes {
		t.Fatalf("no dedup: %d unique cost programs for %d nodes", c.NumCostPrograms(), nodes)
	}
	if c.NumTensorPrograms() >= tensors {
		t.Fatalf("no dedup: %d unique tensor programs for %d tensors", c.NumTensorPrograms(), tensors)
	}
	flopIx, byteIx := c.CostIndexes()
	if len(flopIx) != nodes || len(byteIx) != nodes {
		t.Fatalf("index lengths %d/%d, want %d nodes", len(flopIx), len(byteIx), nodes)
	}
	for i := 0; i < tensors; i++ {
		if ix := c.TensorIndex(i); ix < 0 || int(ix) >= c.NumTensorPrograms() {
			t.Fatalf("tensor %d: size class %d outside [0, %d)", i, ix, c.NumTensorPrograms())
		}
	}
}

// TestBatchedCompiledMatchesScalar asserts every batched Compiled method
// is bit-identical to its scalar counterpart across a grid of bindings.
func TestBatchedCompiledMatchesScalar(t *testing.T) {
	g := buildChainGraph(48)
	c := Compile(g)

	hs := []float64{16, 96.5, 384, 1024}
	rows := len(hs)
	b := c.NewBatch(rows)
	hSlot, ok := c.Syms.Slot("h")
	if !ok {
		t.Fatal("no h slot")
	}
	for r, h := range hs {
		b.Set(r, hSlot, h)
	}

	var bs BatchScratch
	stats := c.EvalStatsBatch(b, nil, &bs)
	slots := c.NewSlots()
	for r, h := range hs {
		slots[hSlot] = h
		want := c.EvalStats(slots)
		if stats[r] != want {
			t.Fatalf("row %d: EvalStatsBatch %+v != EvalStats %+v", r, stats[r], want)
		}
	}

	// Per-node costs: batched matrix gathered per row vs scalar NodeCosts.
	nodeUniq := c.NodeCostsBatch(b, nil, &bs.Eval)
	flopIx, byteIx := c.CostIndexes()
	for r, h := range hs {
		slots[hSlot] = h
		wantF, wantB := c.NodeCosts(slots, nil, nil)
		for i := range wantF {
			gotF := nodeUniq[int(flopIx[i])*rows+r]
			gotB := nodeUniq[int(byteIx[i])*rows+r]
			if math.Float64bits(gotF) != math.Float64bits(wantF[i]) ||
				math.Float64bits(gotB) != math.Float64bits(wantB[i]) {
				t.Fatalf("row %d node %d: batched (%v,%v) != scalar (%v,%v)", r, i, gotF, gotB, wantF[i], wantB[i])
			}
		}
	}

	// Footprints: FootprintFromBatch vs scalar Footprint.
	tensUniq := c.TensorBytesBatch(b, nil, &bs.Eval)
	var fp FootprintScratch
	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		for r, h := range hs {
			slots[hSlot] = h
			want, err := c.Footprint(slots, policy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.FootprintFromBatch(tensUniq, rows, r, policy, &fp)
			if err != nil {
				t.Fatal(err)
			}
			if got.PeakBytes != want.PeakBytes || got.PersistentBytes != want.PersistentBytes ||
				got.PeakTransientBytes != want.PeakTransientBytes || len(got.Order) != len(want.Order) {
				t.Fatalf("row %d %v: FootprintFromBatch %+v != Footprint %+v", r, policy, got, want)
			}
			for i := range want.Order {
				if got.Order[i] != want.Order[i] {
					t.Fatalf("row %d %v: order diverges at %d", r, policy, i)
				}
			}
		}
	}
}

// TestFootprintFromBatchSteadyStateAllocs pins the point of
// FootprintScratch: warm footprint evaluation of the rows of a batched
// tensor-byte matrix does not allocate.
func TestFootprintFromBatchSteadyStateAllocs(t *testing.T) {
	g := buildChainGraph(32)
	c := Compile(g)
	hSlot, _ := c.Syms.Slot("h")
	b := c.NewBatch(2)
	b.Set(0, hSlot, 128)
	b.Set(1, hSlot, 256)
	var bs BatchScratch
	uniq := c.TensorBytesBatch(b, nil, &bs.Eval)
	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		var fp FootprintScratch
		if _, err := c.FootprintFromBatch(uniq, b.Rows(), 0, policy, &fp); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for r := 0; r < b.Rows(); r++ {
				if _, err := c.FootprintFromBatch(uniq, b.Rows(), r, policy, &fp); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 0 {
			t.Fatalf("%v: warm FootprintFromBatch allocates %v times per run", policy, allocs)
		}
	}
}
