package catamount_test

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"

	cat "catamount"
)

func TestBuildAllDomains(t *testing.T) {
	for _, d := range cat.Domains() {
		m, err := cat.Build(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if m.Domain != d {
			t.Fatalf("%s: wrong domain %s", d, m.Domain)
		}
	}
}

func TestAnalyzeWordLMHeadlineNumbers(t *testing.T) {
	// Current-SOTA word LM at the paper's profiling subbatch: the paper's
	// characterization lands at ~481 FLOPs/param/sample (γ), ~12 B/param
	// footprint, and moderate (20–40 FLOP/B) operational intensity.
	r, err := cat.Analyze(cat.WordLM, 1.03e9, 128)
	if err != nil {
		t.Fatal(err)
	}
	gamma := r.FLOPsPerSample / r.Params
	if gamma < 300 || gamma > 500 {
		t.Fatalf("FLOPs/param/sample = %.0f, paper ~481", gamma)
	}
	perParam := r.FootprintBytes / r.Params
	if perParam < 10 || perParam > 20 {
		t.Fatalf("footprint = %.1f B/param, paper ~11.94", perParam)
	}
	if r.Intensity < 20 || r.Intensity > 45 {
		t.Fatalf("intensity = %.1f, paper shows moderate RNN intensity", r.Intensity)
	}
}

func TestAnalyzeUnknownDomain(t *testing.T) {
	if _, err := cat.Analyze(cat.Domain("bogus"), 1e6, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestAccuracyProjectionsTable1(t *testing.T) {
	projs, err := cat.AccuracyProjections()
	if err != nil {
		t.Fatal(err)
	}
	if len(projs) != 5 {
		t.Fatalf("rows = %d", len(projs))
	}
	var buf bytes.Buffer
	cat.PrintTable1(&buf, projs)
	out := buf.String()
	for _, want := range []string{"Word LMs", "Character LMs", "NMT", "Speech", "Image"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestAsymptoticTableOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("fits Table 2 asymptotes across all domains")
	}
	asyms, err := cat.AsymptoticTable()
	if err != nil {
		t.Fatal(err)
	}
	g := map[cat.Domain]cat.Asymptotics{}
	for _, a := range asyms {
		g[a.Domain] = a
	}
	// γ ordering (paper Table 2: 1111 > 900 > 775 > 481 > 149).
	order := []cat.Domain{cat.ImageCl, cat.CharLM, cat.Speech, cat.WordLM, cat.NMT}
	for i := 1; i < len(order); i++ {
		if g[order[i-1]].Gamma <= g[order[i]].Gamma {
			t.Fatalf("gamma ordering violated: %s (%.0f) <= %s (%.0f)",
				order[i-1], g[order[i-1]].Gamma, order[i], g[order[i]].Gamma)
		}
	}
	// λ ordering: RNNs re-stream weights per timestep; CNNs do not
	// (paper: 3510/3100/1755/533 vs 66.7).
	if g[cat.ImageCl].Lambda >= g[cat.NMT].Lambda {
		t.Fatal("ResNet lambda should be far below every RNN's")
	}
	if g[cat.CharLM].Lambda <= g[cat.WordLM].Lambda {
		t.Fatal("char LM (q=150) must out-stream word LM (q=80)")
	}
	// Word LM specifics vs the paper's 481 and 1755.
	if math.Abs(g[cat.WordLM].Gamma-481)/481 > 0.1 {
		t.Fatalf("wordlm gamma = %.0f, paper 481", g[cat.WordLM].Gamma)
	}
	if math.Abs(g[cat.WordLM].Lambda-1755)/1755 > 0.15 {
		t.Fatalf("wordlm lambda = %.0f, paper 1755", g[cat.WordLM].Lambda)
	}
	// NMT gamma ≈ 149.
	if math.Abs(g[cat.NMT].Gamma-149)/149 > 0.1 {
		t.Fatalf("nmt gamma = %.0f, paper 149", g[cat.NMT].Gamma)
	}
	// Language-model footprints have the ~12 B/param floor.
	if g[cat.WordLM].Delta < 11 {
		t.Fatalf("wordlm delta = %.1f", g[cat.WordLM].Delta)
	}
	var buf bytes.Buffer
	cat.PrintTable2(&buf, asyms)
	if !strings.Contains(buf.String(), "sqrt(p)") {
		t.Fatal("table 2 missing intensity form")
	}
}

func TestFrontierTable3Segmentation(t *testing.T) {
	if testing.Short() {
		t.Skip("projects Table 3 across all domains")
	}
	rows, err := cat.FrontierTable(cat.TargetAccelerator())
	if err != nil {
		t.Fatal(err)
	}
	byDomain := map[cat.Domain]cat.Frontier{}
	for _, r := range rows {
		byDomain[r.Spec.Domain] = r
	}
	// The paper's headline segmentation: language domains need 100x+ more
	// epoch time than speech/vision; char LM is the extreme.
	charlm, wordlm := byDomain[cat.CharLM], byDomain[cat.WordLM]
	speech, image := byDomain[cat.Speech], byDomain[cat.ImageCl]
	if charlm.EpochDays < 100*speech.EpochDays {
		t.Fatalf("char LM epoch (%.3g days) should dwarf speech (%.3g days)",
			charlm.EpochDays, speech.EpochDays)
	}
	if wordlm.EpochDays < 10*image.EpochDays {
		t.Fatalf("word LM epoch (%.3g) should dwarf image (%.3g)",
			wordlm.EpochDays, image.EpochDays)
	}
	// Speech and image are within reach (paper: ~3 months per epoch).
	if speech.EpochDays > 150 || image.EpochDays > 150 {
		t.Fatalf("speech/image epochs too long: %.3g / %.3g days",
			speech.EpochDays, image.EpochDays)
	}
	// Language footprints exceed the 32 GB accelerator many times over
	// (paper: 8–100x); vision/speech are modest.
	if wordlm.MemoryMultiple < 5 || charlm.MemoryMultiple < 20 {
		t.Fatalf("LM memory multiples too small: %.1f / %.1f",
			wordlm.MemoryMultiple, charlm.MemoryMultiple)
	}
	if image.MemoryMultiple > 2 {
		t.Fatalf("image memory multiple = %.1f, should be modest", image.MemoryMultiple)
	}
	// Word LM step time ~115 s in the paper.
	if wordlm.StepSeconds < 50 || wordlm.StepSeconds > 250 {
		t.Fatalf("wordlm step = %.1f s, paper 115 s", wordlm.StepSeconds)
	}
	var buf bytes.Buffer
	cat.PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Epoch") {
		t.Fatal("table 3 header missing")
	}
}

func TestTargetAcceleratorTable4(t *testing.T) {
	acc := cat.TargetAccelerator()
	if acc.PeakFLOPS != 15.67e12 || acc.MemCapacity != 32e9 {
		t.Fatalf("unexpected accelerator: %+v", acc)
	}
	var buf bytes.Buffer
	cat.PrintTable4(&buf, acc)
	for _, want := range []string{"15.67 TFLOP/s", "6 MB", "898 GB/s", "32 GB", "56 GB/s"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table 4 missing %q", want)
		}
	}
}

func TestCaseStudyTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full parallelization case study")
	}
	cs, err := cat.WordLMCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cat.PrintTable5(&buf, cs)
	out := buf.String()
	for _, want := range []string{"Best-case", "Cache-hierarchy-aware",
		"Data Parallelism", "Layer Parallelism", "Shard the Embedding"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 5 missing %q", want)
		}
	}
}

func TestFigure6Regions(t *testing.T) {
	pts, err := cat.Figure6(cat.WordLM)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("points = %d", len(pts))
	}
	var buf bytes.Buffer
	cat.WriteFigure6CSV(&buf, pts)
	if !strings.Contains(buf.String(), "power-law") {
		t.Fatal("missing power-law region")
	}
}

func TestFigureSweepsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every domain across its figure range")
	}
	series, err := cat.FigureSweeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	var buf bytes.Buffer
	cat.WriteSweepCSV(&buf, series)
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if head != "domain,params,gflops_per_step_per_sample,gb_accessed_per_step,op_intensity" {
		t.Fatalf("bad header: %q", head)
	}
	// Figure 7 shape: per-sample FLOPs grow linearly -> ratio of last to
	// first point tracks the params ratio.
	for _, s := range series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		paramRatio := last.Params / first.Params
		flopsRatio := last.FLOPsPerSample / first.FLOPsPerSample
		if flopsRatio < 0.4*paramRatio || flopsRatio > 2.5*paramRatio {
			t.Fatalf("%s: FLOPs growth (%.1fx) far from linear in params (%.1fx)",
				s.Domain, flopsRatio, paramRatio)
		}
		// Figure 9 shape: intensity levels off (sublinear growth).
		if last.Intensity < first.Intensity {
			t.Fatalf("%s: intensity decreased with model size", s.Domain)
		}
	}
}

func TestFigure10AllocatorPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every domain footprint range")
	}
	series, err := cat.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	var sawSwap bool
	for _, s := range series {
		for _, p := range s.Points {
			if p.AllocatorReport.DeviceBytes > 9.6e9+1 {
				t.Fatalf("%s: allocator view above 9.6 GB cap", s.Domain)
			}
			if p.AllocatorReport.Swapping {
				sawSwap = true
			}
		}
	}
	if !sawSwap {
		t.Fatal("no domain hit the 12 GB profiling-GPU cap (paper's Figure 10 does)")
	}
	var buf bytes.Buffer
	cat.WriteFootprintCSV(&buf, series)
	if !strings.Contains(buf.String(), "allocator_gb") {
		t.Fatal("CSV header missing")
	}
}

func TestFigure11SubbatchChoices(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps frontier word-LM subbatches")
	}
	acc := cat.TargetAccelerator()
	data, err := cat.Figure11(acc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(data.RidgePoint-acc.EffectiveRidgePoint()) > 1e-9 {
		t.Fatal("ridge point mismatch")
	}
	minT := data.Chosen["min-time-per-sample"]
	ridge := data.Chosen["ridge-point-match"]
	sat := data.Chosen["intensity-saturation"]
	// Paper §5.2.1: ridge-match <= min-time << saturation, with min-time
	// settling near the paper's subbatch 128 (we accept a small multiple).
	if !(ridge.Subbatch <= minT.Subbatch && minT.Subbatch < sat.Subbatch) {
		t.Fatalf("policy ordering broken: ridge=%v min=%v sat=%v",
			ridge.Subbatch, minT.Subbatch, sat.Subbatch)
	}
	if minT.Subbatch < 32 || minT.Subbatch > 1024 {
		t.Fatalf("min-time subbatch = %v, paper chose 128", minT.Subbatch)
	}
	ratio := minT.Subbatch / ridge.Subbatch
	if ratio < 1 || ratio > 8 {
		t.Fatalf("min-time / ridge subbatch ratio = %v, paper ~1.5", ratio)
	}
	var buf bytes.Buffer
	cat.WriteFigure11CSV(&buf, data)
	if !strings.Contains(buf.String(), "ridge point") {
		t.Fatal("CSV missing ridge point annotation")
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the case study and data-parallel sweep")
	}
	data, err := cat.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Points
	if len(pts) < 10 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].EpochDays >= pts[i-1].EpochDays {
			t.Fatalf("epoch days not decreasing at %d workers", pts[i].Workers)
		}
		if pts[i].Utilization > pts[i-1].Utilization+1e-12 {
			t.Fatalf("utilization increased at %d workers", pts[i].Workers)
		}
	}
	// The paper reaches ~6.2 days at 1024 workers; ours should land within
	// a small factor (the sized case-study model differs slightly).
	for _, p := range pts {
		if p.Workers == 1024 {
			if p.EpochDays > 31 || p.EpochDays < 0.1 {
				t.Fatalf("1024-worker epoch = %.2f days, paper ~6.2", p.EpochDays)
			}
		}
	}
	var buf bytes.Buffer
	cat.WriteFigure12CSV(&buf, data)
	if !strings.Contains(buf.String(), "workers,") {
		t.Fatal("CSV header missing")
	}
}

func TestSpecForAllDomains(t *testing.T) {
	for _, d := range cat.Domains() {
		spec, err := cat.SpecFor(d)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Domain != d {
			t.Fatalf("spec domain mismatch for %s", d)
		}
	}
}

func TestCheckpointRoundTripViaFacade(t *testing.T) {
	m, err := cat.Build(cat.NMT)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	g, err := cat.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes()) != len(m.Graph.Nodes()) {
		t.Fatalf("nodes %d vs %d", len(g.Nodes()), len(m.Graph.Nodes()))
	}
	// The reloaded graph analyzes identically.
	env := m.Env(512, 16)
	a, err := m.Graph.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	if a.FLOPs != b.FLOPs || a.Bytes != b.Bytes || a.Params != b.Params {
		t.Fatalf("stats changed: %+v vs %+v", a, b)
	}
}

func TestProfileModelFacade(t *testing.T) {
	m, err := cat.Build(cat.WordLM)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cat.ProfileModel(m, 1e8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.ByKind[0].Kind != "matmul" {
		t.Fatalf("top kind %s", p.ByKind[0].Kind)
	}
	if p.IOBytes <= 0 {
		t.Fatal("no IO reported")
	}
	var buf bytes.Buffer
	p.Print(&buf, 5)
	if !strings.Contains(buf.String(), "matmul") {
		t.Fatal("profile print missing matmul")
	}
}

func TestPrintRequirementsReport(t *testing.T) {
	r, err := cat.Analyze(cat.ImageCl, 61e6, 32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cat.PrintRequirements(&buf, r)
	for _, want := range []string{"Parameters", "Operational intensity", "footprint"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The subbatch prints with %g: integral values below 1e6 as before,
	// fractions in full, and a huge subbatch in exponent form rather than
	// as hundreds of digits.
	line := regexp.MustCompile(`(?m)^Subbatch +(\S+)$`)
	for _, c := range []struct {
		batch float64
		want  string
	}{{32, "32"}, {524288, "524288"}, {32.5, "32.5"}, {1e300, "1e+300"}} {
		r.Batch = c.batch
		buf.Reset()
		cat.PrintRequirements(&buf, r)
		if m := line.FindStringSubmatch(buf.String()); m == nil || m[1] != c.want {
			t.Fatalf("subbatch %g: line %q, want %q", c.batch, m, c.want)
		}
	}
}

func TestEngineMatchesPackageLevelAnalyze(t *testing.T) {
	eng := cat.NewEngine()
	got, err := eng.Analyze(cat.WordLM, 1e8, 32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cat.Analyze(cat.WordLM, 1e8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != want.Params || got.FLOPsPerStep != want.FLOPsPerStep ||
		got.BytesPerStep != want.BytesPerStep || got.FootprintBytes != want.FootprintBytes {
		t.Fatalf("engine %+v != package-level %+v", got, want)
	}
}

func TestEngineMemoizesAnalyzers(t *testing.T) {
	eng := cat.NewEngine()
	a1, err := eng.Analyzer(cat.ImageCl)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Analyzer(cat.ImageCl)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("engine rebuilt an analyzer for the same domain")
	}
	m, err := eng.Model(cat.ImageCl)
	if err != nil {
		t.Fatal(err)
	}
	if m != a1.Model {
		t.Fatal("engine model is not the analyzer's model")
	}
	if _, err := eng.Analyzer(cat.Domain("bogus")); err == nil {
		t.Fatal("expected error for unknown domain")
	}
}

func TestEngineProfile(t *testing.T) {
	eng := cat.NewEngine()
	p, err := eng.Profile(cat.WordLM, 1e8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.ByKind[0].Kind != "matmul" {
		t.Fatalf("top kind %s", p.ByKind[0].Kind)
	}
	if p.IOBytes <= 0 {
		t.Fatal("no IO reported")
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	eng := cat.NewEngine()
	// The two smallest graphs keep this fast under -short while still
	// exercising concurrent memoization and evaluation.
	domains := []cat.Domain{cat.ImageCl, cat.NMT}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := eng.Analyze(domains[w%len(domains)], 5e7, 16); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSharedModelExprConcurrentAccess(t *testing.T) {
	// Engine.Model hands the same *Model to every caller; its expression
	// accessors return the graph totals WarmCosts builds exactly once, so
	// concurrent access is safe.
	eng := cat.NewEngine()
	m, err := eng.Model(cat.ImageCl)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.ParamExpr()
			_ = m.FLOPsExpr()
			_ = m.BytesExpr()
		}()
	}
	wg.Wait()
}
