package sweep

import (
	"context"
	"math"
	"testing"
)

// collectGrid runs a spec through the shared source and returns points in
// Seq order.
func collectGrid(t *testing.T, spec Spec) []Point {
	t.Helper()
	r, err := New(sharedSource, spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Point, r.Points())
	if err := r.Run(context.Background(), func(p Point) error {
		out[p.Seq] = p
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPerOpDominatesGraphOnReferenceGrid is the dominance property across
// the paper-scale grid: every catalog accelerator × all five domains ×
// two subbatches × three parameter targets. The per-op backend must never
// report a faster step than the graph-level backend on any point, and its
// points must stay finite and labeled.
func TestPerOpDominatesGraphOnReferenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference grid under two backends")
	}
	graphSpec := referenceSpec()
	peropSpec := referenceSpec()
	peropSpec.CostModel = "perop"

	graph := collectGrid(t, graphSpec)
	perop := collectGrid(t, peropSpec)
	if len(graph) != len(perop) || len(graph) == 0 {
		t.Fatalf("grid sizes differ: %d vs %d", len(graph), len(perop))
	}

	dominated := 0
	for i := range graph {
		g, p := graph[i], perop[i]
		if g.Error != "" || p.Error != "" {
			t.Fatalf("point %d errored: %q / %q", i, g.Error, p.Error)
		}
		if g.Domain != p.Domain || g.Accelerator != p.Accelerator ||
			g.ParamTarget != p.ParamTarget || g.Subbatch != p.Subbatch {
			t.Fatalf("point %d identity mismatch: %+v vs %+v", i, g, p)
		}
		if math.IsNaN(p.StepSeconds) || math.IsInf(p.StepSeconds, 0) || p.StepSeconds <= 0 {
			t.Fatalf("point %d: per-op step %v not positive finite", i, p.StepSeconds)
		}
		if p.StepSeconds < g.StepSeconds {
			t.Errorf("%s/%s params=%g b=%g: per-op %.6g faster than graph %.6g",
				p.Domain, p.Accelerator, p.ParamTarget, p.Subbatch, p.StepSeconds, g.StepSeconds)
		}
		if p.StepSeconds > g.StepSeconds {
			dominated++
		}
		if p.Utilization > g.Utilization {
			t.Errorf("%s/%s: per-op utilization %.4g above graph %.4g",
				p.Domain, p.Accelerator, p.Utilization, g.Utilization)
		}
		if g.CostModel != "" {
			t.Errorf("default grid point labeled %q, want unlabeled", g.CostModel)
		}
		if p.CostModel != "perop" {
			t.Errorf("per-op grid point labeled %q, want perop", p.CostModel)
		}
	}
	// The per-op view must actually bite somewhere — if every point ties,
	// the efficiency table is dead weight.
	if dominated == 0 {
		t.Error("per-op backend never strictly exceeded the graph-level estimate")
	}
}

// TestSweepSpecCostModelValidation: unknown backends are a spec error out
// of New (a 400 at the server), and aliases resolve.
func TestSweepSpecCostModelValidation(t *testing.T) {
	base := Spec{Domains: []string{"image"}, Params: []float64{5e7}}

	bad := base
	bad.CostModel = "abacus"
	if _, err := New(sharedSource, bad); err == nil {
		t.Fatal("unknown costmodel accepted")
	}
	for _, name := range []string{"", "graph", "roofline", "perop", "per-op-roofline"} {
		ok := base
		ok.CostModel = name
		if _, err := New(sharedSource, ok); err != nil {
			t.Fatalf("costmodel %q rejected: %v", name, err)
		}
	}
}
