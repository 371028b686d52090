package graph

import (
	"math"
	"sync"
	"testing"

	"catamount/internal/symbolic"
)

func TestCompiledMatchesTreeEval(t *testing.T) {
	g := buildChainGraph(64)
	c := Compile(g)
	env := symbolic.Env{"h": 384}

	want, err := g.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		t.Fatal(err)
	}
	got := c.EvalStats(slots)
	if got.Params != want.Params || got.FLOPs != want.FLOPs || got.Bytes != want.Bytes {
		t.Fatalf("compiled stats %+v != tree stats %+v", got, want)
	}

	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		wantFP, err := g.Footprint(env, policy)
		if err != nil {
			t.Fatal(err)
		}
		gotFP, err := c.Footprint(slots, policy)
		if err != nil {
			t.Fatal(err)
		}
		if gotFP.PeakBytes != wantFP.PeakBytes ||
			gotFP.PersistentBytes != wantFP.PersistentBytes ||
			gotFP.PeakTransientBytes != wantFP.PeakTransientBytes {
			t.Fatalf("%v: compiled footprint %+v != tree %+v", policy, gotFP, wantFP)
		}
		if len(gotFP.Order) != len(wantFP.Order) {
			t.Fatalf("%v: order lengths differ", policy)
		}
	}
}

func TestCompiledNodeCosts(t *testing.T) {
	g := buildChainGraph(8)
	c := g.Compile()
	env := symbolic.Env{"h": 100}
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		t.Fatal(err)
	}
	flops, bytes := c.NodeCosts(slots, nil, nil)
	nodes := g.Nodes()
	if len(flops) != len(nodes) || len(bytes) != len(nodes) {
		t.Fatalf("cost lengths %d/%d, want %d", len(flops), len(bytes), len(nodes))
	}
	for i, n := range nodes {
		wf := symbolic.MustEval(n.FLOPs(), env)
		wb := symbolic.MustEval(n.Bytes(), env)
		if flops[i] != wf || bytes[i] != wb {
			t.Fatalf("node %s: compiled (%g, %g) != tree (%g, %g)", n.Name, flops[i], bytes[i], wf, wb)
		}
	}
}

func TestCompiledBindValues(t *testing.T) {
	g := buildChainGraph(4)
	c := g.Compile()
	slots := c.NewSlots()
	if err := c.BindValues(slots, []string{"h", "not-a-symbol"}, []float64{64, 99}); err != nil {
		t.Fatal(err)
	}
	want, err := g.EvalStats(symbolic.Env{"h": 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EvalStats(slots); got.FLOPs != want.FLOPs {
		t.Fatalf("FLOPs %g != %g", got.FLOPs, want.FLOPs)
	}
	if err := c.BindValues(slots, []string{"h"}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCompiledConcurrentEval(t *testing.T) {
	g := buildChainGraph(128)
	c := g.Compile()
	ref, err := g.EvalStats(symbolic.Env{"h": 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := c.NewSlots()
			for i := 0; i < 50; i++ {
				if err := c.Bind(slots, symbolic.Env{"h": 256}); err != nil {
					errs <- err
					return
				}
				if s := c.EvalStats(slots); math.Abs(s.FLOPs-ref.FLOPs) > 0 {
					errs <- errMismatch
					return
				}
				if _, err := c.Footprint(slots, PolicyMemGreedy); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent eval mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestColdGraphConcurrentAnalysis(t *testing.T) {
	// A freshly built (never analyzed) graph must be safe to analyze from
	// several goroutines at once: WarmCosts synchronizes the cost
	// derivation and interning behind every graph-level entry point.
	g := buildChainGraph(64)
	env := symbolic.Env{"h": 128}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if _, err := g.EvalStats(env); err != nil {
					errs <- err
				}
				return
			}
			c := Compile(g)
			slots := c.NewSlots()
			if err := c.Bind(slots, env); err != nil {
				errs <- err
			}
			_ = c.EvalStats(slots)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
