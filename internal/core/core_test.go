package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/scaling"
)

// testWordLM is a reduced word LM that keeps core tests fast while
// preserving the asymptotic structure (6q + 4 FLOPs/param, λ ≈ 6q·4).
func testWordLM() *models.Model {
	return models.BuildWordLM(models.WordLMConfig{Layers: 2, SeqLen: 10, Vocab: 200})
}

func TestCharacterizeBasics(t *testing.T) {
	r, err := characterize(newTestAnalyzer(t, testWordLM()), 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Params <= 0 || r.FLOPsPerStep <= 0 || r.BytesPerStep <= 0 {
		t.Fatalf("bad requirements: %+v", r)
	}
	if r.FLOPsPerSample*32 != r.FLOPsPerStep {
		t.Fatal("per-sample normalization wrong")
	}
	if math.Abs(r.Intensity-r.FLOPsPerStep/r.BytesPerStep) > 1e-12 {
		t.Fatal("intensity inconsistent")
	}
	if r.FootprintBytes < r.PersistentBytes {
		t.Fatal("footprint below persistent bytes")
	}
	ratio := r.BwdFLOPs / r.FwdFLOPs
	if ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("bwd/fwd = %.2f", ratio)
	}
}

func TestSweepParamsMonotone(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	targets := LogSpace(1e6, 1e8, 5)
	rs, err := a.SweepParams(targets, 16, graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("points = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Params <= rs[i-1].Params {
			t.Fatal("params not increasing")
		}
		if rs[i].FLOPsPerStep <= rs[i-1].FLOPsPerStep {
			t.Fatal("FLOPs not increasing")
		}
		if rs[i].FootprintBytes <= rs[i-1].FootprintBytes {
			t.Fatal("footprint not increasing")
		}
	}
	// Params should hit the targets.
	for i, r := range rs {
		if math.Abs(r.Params-targets[i])/targets[i] > 1e-6 {
			t.Fatalf("point %d params %.4g, want %.4g", i, r.Params, targets[i])
		}
	}
}

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-9 {
			t.Fatalf("v[%d] = %v", i, v[i])
		}
	}
	if got := LogSpace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate LogSpace = %v", got)
	}
}

func TestDefaultSweepTargetsCoverDomains(t *testing.T) {
	for _, d := range models.AllDomains {
		ts := DefaultSweepTargets(d)
		if len(ts) < 4 {
			t.Fatalf("%s: too few targets", d)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("%s: targets not increasing", d)
			}
		}
	}
}

func TestFitAsymptoticsWordLMShape(t *testing.T) {
	a, err := newTestAnalyzer(t, testWordLM()).FitAsymptotics(LogSpace(1e7, 1e9, 4),
		[]float64{8, 32, 128}, 32, graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	// γ → 6q + 4 = 64 at q=10.
	if math.Abs(a.Gamma-64)/64 > 0.1 {
		t.Fatalf("gamma = %.1f, want ~64", a.Gamma)
	}
	// λ → ~6q·4 = 240 B/param (per-step weight traffic across fwd, bwd and
	// gradient aggregation), plus the ~26 B/param update/grad-write floor.
	if a.Lambda < 180 || a.Lambda > 320 {
		t.Fatalf("lambda = %.1f, want ~240", a.Lambda)
	}
	if a.Mu <= 0 {
		t.Fatalf("mu = %v, want positive batch-dependent traffic", a.Mu)
	}
	if a.BytesR2 < 0.98 {
		t.Fatalf("bytes fit R2 = %.4f", a.BytesR2)
	}
	// δ ≥ 12 B/param (weights + grads + momentum) and below ~3x that for a
	// small-vocab LM at moderate batch.
	if a.Delta < 11 || a.Delta > 40 {
		t.Fatalf("delta = %.1f B/param", a.Delta)
	}
	// Intensity formula: rises with b, saturates with p.
	if a.IntensityAt(1e9, 64) <= a.IntensityAt(1e9, 8) {
		t.Fatal("intensity not increasing in b")
	}
	lim := 64.0 / a.IntensityX // b/(λ/γ) as p→∞... scaled below
	_ = lim
	if a.IntensityForm() == "" {
		t.Fatal("empty intensity form")
	}
}

func TestIntensitySaturatesWithModelSize(t *testing.T) {
	a := Asymptotics{Gamma: 484, Lambda: 1755, Mu: 30784}
	a.IntensityX = a.Lambda / a.Gamma
	a.IntensityY = a.Mu / a.Gamma
	// For fixed b, intensity approaches γ·b/λ as p→∞ (paper §4.4).
	limit := 484.0 * 128 / 1755
	got := a.IntensityAt(1e13, 128)
	if math.Abs(got-limit)/limit > 0.05 {
		t.Fatalf("intensity at huge p = %.2f, want ~%.2f", got, limit)
	}
	if a.IntensityAt(1e8, 128) >= got {
		t.Fatal("intensity should grow toward the asymptote")
	}
}

func TestFitAsymptoticsNeedsEnoughPoints(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	if _, err := a.FitAsymptotics([]float64{1e7}, []float64{8, 16}, 8,
		graph.PolicyMemGreedy); err == nil {
		t.Fatal("expected too-few-sizes error")
	}
	if _, err := a.FitAsymptotics([]float64{1e7, 1e8}, []float64{8}, 8,
		graph.PolicyMemGreedy); err == nil {
		t.Fatal("expected too-few-batches error")
	}
}

func TestProjectFrontierSmallModel(t *testing.T) {
	// Use the reduced model with a synthetic spec so the test stays fast
	// but exercises the full Table 3 pipeline.
	m := testWordLM()
	spec := scaling.DomainSpec{
		Domain: models.WordLM, Name: "test", TokensPerSample: 10,
	}
	proj := scaling.Projection{
		Spec:              spec,
		TargetDataSamples: 1e9,
		TargetParams:      2e8,
	}
	acc := hw.TargetAccelerator()
	fr, err := newTestAnalyzer(t, m).ProjectFrontierWith(proj, acc, costmodel.Default(), graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Subbatch < 1 {
		t.Fatalf("subbatch = %v", fr.Subbatch)
	}
	if fr.StepSeconds <= 0 || fr.EpochDays <= 0 {
		t.Fatalf("times: %+v", fr)
	}
	if fr.Utilization <= 0 || fr.Utilization > 0.8001 {
		t.Fatalf("utilization = %v", fr.Utilization)
	}
	// Epoch accounting: steps * stepTime.
	steps := proj.TargetDataSamples / (fr.Subbatch * spec.TokensPerSample)
	wantDays := steps * fr.StepSeconds / 86400
	if math.Abs(fr.EpochDays-wantDays)/wantDays > 1e-9 {
		t.Fatalf("epoch days %v, want %v", fr.EpochDays, wantDays)
	}
}

func TestFootprintSweepAllocatorCap(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	pts, err := a.FootprintSweep(LogSpace(1e7, 3e9, 4), 32, graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	// The largest point (3e9 params ≈ 36 GB at 12 B/param) must exceed the
	// 9.6 GB usable cap and show swapping; the smallest must not.
	if pts[0].AllocatorReport.Swapping {
		t.Fatal("small model should not swap")
	}
	last := pts[len(pts)-1]
	if !last.AllocatorReport.Swapping {
		t.Fatalf("large model should swap (footprint %.3g)", last.FootprintBytes)
	}
	if last.AllocatorReport.DeviceBytes > 9.6e9+1 {
		t.Fatal("allocator-visible footprint must plateau at the cap")
	}
}

// TestSessionPoolSharedAcrossCallers drives one Analyzer's session pool
// from several goroutines at once: one-row Point queries, and batched
// CharacterizeBatch calls of varying width with and without per-op costs
// on pooled sessions. A session one caller returns is then reused by
// another caller of a different shape, and every row must still equal the
// scalar oracle bit for bit. Run it under -race.
func TestSessionPoolSharedAcrossCallers(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	ctx := context.Background()
	sizes := []float64{64, 128, 256, 512, 1024}
	batches := []float64{8, 32, 128, 16, 64}
	want := make([]Requirements, len(sizes))
	for i := range sizes {
		var err error
		if want[i], err = oracleCharacterize(a, sizes[i], batches[i], graph.PolicyMemGreedy); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				i := (g + it) % len(sizes)
				r, _, err := a.Point(ctx, sizes[i], batches[i], graph.PolicyMemGreedy,
					hw.TargetAccelerator(), costmodel.PerOpRoofline{})
				if err != nil || r != want[i] {
					t.Errorf("goroutine %d: Point row %d = %+v, %v; want %+v", g, i, r, err, want[i])
					return
				}
				w := 1 + i
				s := a.GetSession()
				reqs, _, err := s.CharacterizeBatch(ctx, sizes[:w], batches[:w], graph.PolicyMemGreedy, it%2 == 0, nil)
				a.PutSession(s)
				if err != nil {
					t.Errorf("goroutine %d: CharacterizeBatch: %v", g, err)
					return
				}
				for j, r := range reqs {
					if r != want[j] {
						t.Errorf("goroutine %d: %d-row batch row %d = %+v, want %+v", g, w, j, r, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPointMatchesOracle: a point query equals the scalar oracle bit for
// bit, requirements and step time, under both cost models, and names the
// first field that overflows float64 instead of returning it.
func TestPointMatchesOracle(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	ctx := context.Background()
	acc := hw.TargetAccelerator()
	for _, cm := range []costmodel.Model{costmodel.GraphRoofline{}, costmodel.PerOpRoofline{}} {
		for _, pt := range [][2]float64{{64, 8}, {512, 32}, {1024, 1}} {
			want, err := oracleCharacterize(a, pt[0], pt[1], graph.PolicyMemGreedy)
			if err != nil {
				t.Fatal(err)
			}
			c := oracleCosts(a, pt[0], pt[1], costmodel.NeedsOpCosts(cm))
			r, est, err := a.Point(ctx, pt[0], pt[1], graph.PolicyMemGreedy, acc, cm)
			if err != nil {
				t.Fatal(err)
			}
			step := cm.StepTime(acc, c)
			if r != want || math.Float64bits(est.StepSeconds) != math.Float64bits(step) ||
				est.ComputeBound != (cm.Bound(acc, c) == costmodel.BoundCompute) ||
				est.Utilization != acc.Utilization(want.FLOPsPerStep, step) || est.CostModel != cm.Name() {
				t.Fatalf("%s at %v: Point %+v %+v, oracle %+v step %v", cm.Name(), pt, r, est, want, step)
			}
		}
	}
	tiny := acc
	tiny.PeakFLOPS = 1e-300
	for _, c := range []struct {
		batch float64
		acc   hw.Accelerator
		want  string
	}{
		{1e300, acc, "core: flops_per_step is +Inf: the point overflows float64"},
		{32, tiny, "core: step_seconds is +Inf: the point overflows float64"},
	} {
		r, est, err := a.Point(ctx, 512, c.batch, graph.PolicyMemGreedy, c.acc, costmodel.Default())
		if err == nil || err.Error() != c.want || r != (Requirements{}) || est != (RooflineEstimate{}) {
			t.Fatalf("batch %g on %g FLOPS: %+v %+v %v; want error %q", c.batch, c.acc.PeakFLOPS, r, est, err, c.want)
		}
	}
}

// TestSubbatchSweepMatchesOracle: the cost-only subbatch sweep behind
// Table 3, Figure 11 and /v1/subbatch prices every row exactly as the
// scalar oracle's cost vector does, per-op breakdown included under the
// per-op backend, and evaluates no footprint.
func TestSubbatchSweepMatchesOracle(t *testing.T) {
	a := newTestAnalyzer(t, testWordLM())
	acc := hw.TargetAccelerator()
	subbatches := hw.PowersOfTwo(10)
	for _, cm := range []costmodel.Model{costmodel.GraphRoofline{}, costmodel.PerOpRoofline{}} {
		pts := a.SubbatchSweep(512, subbatches, acc, cm)
		if len(pts) != len(subbatches) {
			t.Fatalf("%s: %d points for %d subbatches", cm.Name(), len(pts), len(subbatches))
		}
		for i, b := range subbatches {
			c := oracleCosts(a, 512, b, costmodel.NeedsOpCosts(cm))
			step := cm.StepTime(acc, c)
			want := hw.SubbatchPoint{
				Subbatch:      b,
				FLOPs:         c.FLOPs,
				Bytes:         c.Bytes,
				Intensity:     c.FLOPs / c.Bytes,
				StepTime:      step,
				TimePerSample: step / b,
				Utilization:   acc.Utilization(c.FLOPs, step),
			}
			if pts[i] != want {
				t.Fatalf("%s at subbatch %g: %+v, oracle %+v", cm.Name(), b, pts[i], want)
			}
		}
	}
}
