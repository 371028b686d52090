package graph

import (
	"math"
	"strings"
	"testing"

	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// fakeOp is a minimal op for graph-level tests: fixed FLOPs, default bytes.
type fakeOp struct {
	kind  string
	flops float64
}

func (f fakeOp) Kind() string { return f.kind }
func (f fakeOp) FLOPs(*Node) symbolic.Expr {
	return symbolic.C(f.flops)
}
func (f fakeOp) Bytes(n *Node) symbolic.Expr { return IOBytes(n) }

func newTestGraph(t *testing.T) *Graph {
	t.Helper()
	return New("test")
}

func TestAddNodeWiring(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(4))
	n, err := g.AddNode("relu", "layer0", fakeOp{"relu", 4}, []*Tensor{x}, []*Tensor{y})
	if err != nil {
		t.Fatal(err)
	}
	if y.Producer != n {
		t.Fatal("producer not set")
	}
	if len(x.Consumers) != 1 || x.Consumers[0] != n {
		t.Fatal("consumer not set")
	}
	if y.Group != "layer0" {
		t.Fatalf("group = %q, want layer0", y.Group)
	}
}

func TestAddNodeDuplicateProducer(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(4))
	if _, err := g.AddNode("a", "", fakeOp{"a", 1}, []*Tensor{x}, []*Tensor{y}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode("b", "", fakeOp{"b", 1}, []*Tensor{x}, []*Tensor{y}); err == nil {
		t.Fatal("expected duplicate-producer error")
	}
}

func TestAddNodeCannotProduceParam(t *testing.T) {
	g := newTestGraph(t)
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(4))
	if _, err := g.AddNode("bad", "", fakeOp{"x", 1}, nil, []*Tensor{w}); err == nil {
		t.Fatal("expected error producing a param tensor")
	}
}

func TestAddNodeAfterWarmCostsFails(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(h))
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(h))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(h))
	g.MustAddNode("a", "", fakeOp{"a", 1}, []*Tensor{x, w}, []*Tensor{y})
	g.WarmCosts()
	params, flops, bytes, io := g.ParamCount(), g.TotalFLOPs(), g.TotalBytes(), g.AlgorithmicIO()

	z := g.NewTensor("z", Activation, tensor.F32, tensor.Of(h))
	if _, err := g.AddNode("b", "", fakeOp{"b", 1}, []*Tensor{y}, []*Tensor{z}); err == nil {
		t.Fatal("AddNode after WarmCosts succeeded")
	}
	if len(y.Consumers) != 0 || z.Producer != nil || len(g.Nodes()) != 1 {
		t.Fatal("failed AddNode changed the wiring")
	}
	for _, kind := range []TensorKind{Param, Input, State} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTensor(%s) after WarmCosts did not panic", kind)
				}
			}()
			g.NewTensor("late", kind, tensor.F32, tensor.Of(h))
		}()
	}
	for name, pair := range map[string][2]symbolic.Expr{
		"params": {params, g.ParamCount()},
		"flops":  {flops, g.TotalFLOPs()},
		"bytes":  {bytes, g.TotalBytes()},
		"io":     {io, g.AlgorithmicIO()},
	} {
		if !symbolic.Equal(pair[0], pair[1]) {
			t.Errorf("%s total changed after sealing: %v -> %v", name, pair[0], pair[1])
		}
	}
}

func TestTensorSizesMatchShape(t *testing.T) {
	g := newTestGraph(t)
	h, b := symbolic.S("h"), symbolic.S("b")
	shapes := []tensor.Shape{
		tensor.Of(),
		tensor.Of(4),
		tensor.Of(h),
		tensor.Of(b, h),
		tensor.Of(h, b),
		tensor.Of(b, symbolic.Mul(symbolic.C(4), h)),
		tensor.Of(symbolic.Add(h, b), 3),
		tensor.Of(symbolic.Max(h, b), symbolic.Pow(h, symbolic.C(0.5))),
	}
	var tensors []*Tensor
	for _, s := range shapes {
		for _, dt := range []tensor.DType{tensor.F32, tensor.I32, tensor.F16, tensor.I64} {
			tensors = append(tensors, g.NewTensor("t", Activation, dt, s))
		}
	}
	for _, tt := range tensors {
		if got, want := tt.NumElements(), tt.Shape.NumElements(); !symbolic.Equal(got, want) {
			t.Errorf("%v: NumElements = %v, want %v", tt, got, want)
		}
		if got, want := tt.Bytes(), tt.Shape.Bytes(tt.DType); !symbolic.Equal(got, want) {
			t.Errorf("%v: Bytes = %v, want %v", tt, got, want)
		}
	}
}

func TestUniqueTensorNames(t *testing.T) {
	g := newTestGraph(t)
	a := g.NewTensor("t", Activation, tensor.F32, tensor.Of(1))
	b := g.NewTensor("t", Activation, tensor.F32, tensor.Of(1))
	if a.Name == b.Name {
		t.Fatalf("names not uniquified: %q vs %q", a.Name, b.Name)
	}
	if _, ok := g.TensorByName(b.Name); !ok {
		t.Fatal("uniquified tensor not registered")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	mid := g.NewTensor("mid", Activation, tensor.F32, tensor.Of(4))
	out := g.NewTensor("out", Activation, tensor.F32, tensor.Of(4))
	g.MustAddNode("n2", "", fakeOp{"b", 1}, []*Tensor{mid}, []*Tensor{out})
	g.MustAddNode("n1", "", fakeOp{"a", 1}, []*Tensor{x}, []*Tensor{mid})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "n1" || order[1].Name != "n2" {
		t.Fatalf("bad order: %v", order)
	}
}

func TestCycleDetection(t *testing.T) {
	g := newTestGraph(t)
	t0 := g.NewTensor("t0", Activation, tensor.F32, tensor.Of(1))
	t1 := g.NewTensor("t1", Activation, tensor.F32, tensor.Of(1))
	g.MustAddNode("n1", "", fakeOp{"a", 1}, []*Tensor{t1}, []*Tensor{t0})
	g.MustAddNode("n2", "", fakeOp{"b", 1}, []*Tensor{t0}, []*Tensor{t1})
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("expected validate error")
	}
}

func TestValidateOrphanActivation(t *testing.T) {
	g := newTestGraph(t)
	g.NewTensor("orphan", Activation, tensor.F32, tensor.Of(1))
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no producer") {
		t.Fatalf("expected orphan error, got %v", err)
	}
}

func TestTotalsAndParamCount(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(h, h))
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(1, h))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(1, h))
	g.MustAddNode("mm", "fc", fakeOp{"matmul", 100}, []*Tensor{x, w}, []*Tensor{y})

	env := symbolic.Env{"h": 8}
	p, err := g.ParamCount().Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if p != 64 {
		t.Fatalf("params = %v, want 64", p)
	}
	st, err := g.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	if st.FLOPs != 100 {
		t.Fatalf("flops = %v", st.FLOPs)
	}
	// bytes = w(64*4) + x(8*4) + y(8*4) = 256+32+32
	if st.Bytes != 320 {
		t.Fatalf("bytes = %v, want 320", st.Bytes)
	}
	if st.Intensity != 100.0/320.0 {
		t.Fatalf("intensity = %v", st.Intensity)
	}
}

func TestFootprintChainFreesActivations(t *testing.T) {
	// x(100B) -> a(400B) -> b(400B) -> out(4B); greedy or fifo both must
	// free a before allocating out is not possible (b needs a), so peak is
	// x+a (500) then a+b (800) then b+out (404). Peak transient = 800.
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(25))
	a := g.NewTensor("a", Activation, tensor.F32, tensor.Of(100))
	b := g.NewTensor("b", Activation, tensor.F32, tensor.Of(100))
	out := g.NewTensor("out", Activation, tensor.F32, tensor.Of(1))
	g.MustAddNode("n1", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{a})
	g.MustAddNode("n2", "", fakeOp{"f", 1}, []*Tensor{a}, []*Tensor{b})
	g.MustAddNode("n3", "", fakeOp{"f", 1}, []*Tensor{b}, []*Tensor{out})
	for _, pol := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		res, err := g.Footprint(nil, pol)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakTransientBytes != 800 {
			t.Fatalf("%v: transient peak = %v, want 800", pol, res.PeakTransientBytes)
		}
		if res.PersistentBytes != 0 {
			t.Fatalf("persistent = %v, want 0", res.PersistentBytes)
		}
		if len(res.Order) != 3 {
			t.Fatalf("order len = %d", len(res.Order))
		}
	}
}

func TestFootprintIncludesPersistent(t *testing.T) {
	g := newTestGraph(t)
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(1000)) // 4000 B
	m := g.NewTensor("m", State, tensor.F32, tensor.Of(1000)) // 4000 B
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(10))   // 40 B
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(10))
	g.MustAddNode("n", "", fakeOp{"f", 1}, []*Tensor{x, w, m}, []*Tensor{y})
	res, err := g.Footprint(nil, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.PersistentBytes != 8000 {
		t.Fatalf("persistent = %v, want 8000", res.PersistentBytes)
	}
	if res.PeakBytes != 8000+80 {
		t.Fatalf("peak = %v, want 8080", res.PeakBytes)
	}
}

func TestMemGreedyBeatsFIFOOnFanOut(t *testing.T) {
	// A producer feeds two consumers: one tiny reducer that frees a big
	// tensor, one that allocates another big tensor. Greedy should run the
	// reducer first. Construct so FIFO picks the allocator first.
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(256)) // 1 KiB
	big := g.NewTensor("big", Activation, tensor.F32, tensor.Of(2048))
	big2 := g.NewTensor("big2", Activation, tensor.F32, tensor.Of(2048))
	small := g.NewTensor("small", Activation, tensor.F32, tensor.Of(1))
	sink := g.NewTensor("sink", Activation, tensor.F32, tensor.Of(1))

	g.MustAddNode("produce", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{big})
	// Insertion order: allocator first so FIFO is forced to inflate.
	g.MustAddNode("alloc", "", fakeOp{"f", 1}, []*Tensor{big}, []*Tensor{big2})
	g.MustAddNode("reduce", "", fakeOp{"f", 1}, []*Tensor{big}, []*Tensor{small})
	g.MustAddNode("join", "", fakeOp{"f", 1}, []*Tensor{big2, small}, []*Tensor{sink})

	fifo, err := g.Footprint(nil, PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := g.Footprint(nil, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.PeakBytes > fifo.PeakBytes {
		t.Fatalf("greedy (%v) should not exceed fifo (%v)", greedy.PeakBytes, fifo.PeakBytes)
	}
}

func TestFootprintUnboundSymbolError(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(symbolic.S("b")))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(symbolic.S("b")))
	g.MustAddNode("n", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{y})
	if _, err := g.Footprint(map[string]float64{}, PolicyFIFO); err == nil {
		t.Fatal("expected unbound symbol error")
	}
}

func TestFootprintRejectsInvalidSizes(t *testing.T) {
	// A negative size would raise a ready node's key in the mem-greedy
	// decrease-key step and break the heap invariant, so negative and
	// non-finite sizes are errors naming the tensor, on the map-env and
	// the compiled paths alike. Zero stays valid.
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(symbolic.S("b")))
	z := g.NewTensor("z", Activation, tensor.F32, tensor.Of(4))
	g.MustAddNode("n1", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{y})
	g.MustAddNode("n2", "", fakeOp{"f", 1}, []*Tensor{y}, []*Tensor{z})
	c := Compile(g)
	slots := c.NewSlots()
	bSlot, _ := c.Syms.Slot("b")
	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		for _, b := range []float64{-64, math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, err := g.Footprint(map[string]float64{"b": b}, policy)
			if err == nil || !strings.Contains(err.Error(), "tensor y") {
				t.Fatalf("%v b=%v: map-env error %v, want one naming tensor y", policy, b, err)
			}
			slots[bSlot] = b
			if _, err := c.Footprint(slots, policy); err == nil || !strings.Contains(err.Error(), "tensor y") {
				t.Fatalf("%v b=%v: compiled error %v, want one naming tensor y", policy, b, err)
			}
		}
		res, err := g.Footprint(map[string]float64{"b": 0}, policy)
		if err != nil {
			t.Fatalf("%v: zero-size tensor rejected: %v", policy, err)
		}
		if res.PeakBytes != 16 {
			t.Fatalf("%v: peak with a zero-size tensor = %v, want 16", policy, res.PeakBytes)
		}
	}
}

func TestAllocatorSim(t *testing.T) {
	sim := AllocatorSim{CapacityBytes: 12e9, UsableFraction: 0.8}
	r := sim.Apply(5e9)
	if r.Swapping || r.DeviceBytes != 5e9 {
		t.Fatalf("unexpected: %+v", r)
	}
	r = sim.Apply(20e9)
	if !r.Swapping {
		t.Fatal("expected swapping")
	}
	if r.DeviceBytes != 9.6e9 {
		t.Fatalf("device = %v, want 9.6e9", r.DeviceBytes)
	}
	if r.SwappedBytes != 20e9-9.6e9 {
		t.Fatalf("swapped = %v", r.SwappedBytes)
	}
}

func TestGroupAccounting(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	w1 := g.NewTensor("w1", Param, tensor.F32, tensor.Of(h, h))
	w1.Group = "embed"
	w2 := g.NewTensor("w2", Param, tensor.F32, tensor.Of(h, h))
	w2.Group = "output"
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(1, h))
	m := g.NewTensor("m", Activation, tensor.F32, tensor.Of(1, h))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(1, h))
	g.MustAddNode("mm1", "embed", fakeOp{"matmul", 10}, []*Tensor{x, w1}, []*Tensor{m})
	g.MustAddNode("mm2", "output", fakeOp{"matmul", 20}, []*Tensor{m, w2}, []*Tensor{y})

	env := symbolic.Env{"h": 4}
	gf := g.GroupFLOPs()
	if v, _ := gf["embed"].Eval(env); v != 10 {
		t.Fatalf("embed flops = %v", v)
	}
	if v, _ := gf["output"].Eval(env); v != 20 {
		t.Fatalf("output flops = %v", v)
	}
	pb := g.GroupParamBytes()
	if v, _ := pb["embed"].Eval(env); v != 64 {
		t.Fatalf("embed param bytes = %v", v)
	}
	groups := g.Groups()
	if len(groups) != 2 || groups[0] != "embed" || groups[1] != "output" {
		t.Fatalf("groups = %v", groups)
	}
	fp, err := g.GroupFootprints(symbolic.Env{"h": 4}, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if fp["embed"] <= 0 || fp["output"] <= 0 {
		t.Fatalf("group footprints = %v", fp)
	}
	names := SortedGroupNames(fp)
	if len(names) != 2 || names[0] != "embed" {
		t.Fatalf("sorted names = %v", names)
	}
}
