package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

func TestProfileGraphBreakdown(t *testing.T) {
	m := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 4, Vocab: 50})
	env := symbolic.Env{"h": 256, "b": 8}
	p, err := ProfileGraph(m.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	// Matmuls dominate LSTM FLOPs (paper §2.3).
	if p.ByKind[0].Kind != "matmul" {
		t.Fatalf("top kind = %s, want matmul", p.ByKind[0].Kind)
	}
	if p.ByKind[0].FLOPsShare < 0.8 {
		t.Fatalf("matmul share = %.2f, want > 0.8", p.ByKind[0].FLOPsShare)
	}
	// Shares sum to ~1.
	var fsum, bsum float64
	for _, kp := range p.ByKind {
		fsum += kp.FLOPsShare
		bsum += kp.BytesShare
	}
	if math.Abs(fsum-1) > 1e-9 || math.Abs(bsum-1) > 1e-9 {
		t.Fatalf("shares sum to %v / %v", fsum, bsum)
	}
	// Totals agree with the graph-level evaluation.
	st, err := m.Graph.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.TotalFLOPs-st.FLOPs) > 1 || math.Abs(p.TotalBytes-st.Bytes) > 1 {
		t.Fatal("profile totals disagree with EvalStats")
	}
	// Groups cover the model structure with param attribution.
	var sawEmbed bool
	for _, gp := range p.ByGroup {
		if gp.Group == "embed" {
			sawEmbed = true
			if gp.ParamBytes <= 0 {
				t.Fatal("embed group has no param bytes")
			}
		}
	}
	if !sawEmbed {
		t.Fatal("no embed group in profile")
	}
}

func TestProfilePrint(t *testing.T) {
	m := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 3, Vocab: 20})
	p, err := ProfileGraph(m.Graph, symbolic.Env{"h": 16, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Print(&buf, 5)
	out := buf.String()
	for _, want := range []string{"Op kind", "matmul", "Layer group", "Total", "IO:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile output missing %q:\n%s", want, out)
		}
	}
}

func TestProfileUnboundEnv(t *testing.T) {
	m := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 2, Vocab: 10})
	if _, err := ProfileGraph(m.Graph, symbolic.Env{}); err == nil {
		t.Fatal("expected unbound symbol error")
	}
}

func TestAlgorithmicIOBehaviour(t *testing.T) {
	// Paper §2.1: IO is proportional to batch size and fixed as the model
	// grows.
	m := models.BuildWordLM(models.WordLMConfig{Layers: 2, SeqLen: 8, Vocab: 100})
	io := func(h, b float64) float64 {
		return symbolic.MustEval(m.Graph.AlgorithmicIO(), m.Env(h, b))
	}
	if got, want := io(128, 64), 2*io(128, 32); math.Abs(got-want) > 1e-9 {
		t.Fatalf("IO not proportional to batch: %v vs %v", got, want)
	}
	if io(128, 32) != io(4096, 32) {
		t.Fatal("IO changed with model size")
	}
	// ids [b,q] i32 + labels [b,q] i32 = 2*b*q*4 bytes.
	if got, want := io(128, 32), float64(2*32*8*4); got != want {
		t.Fatalf("IO = %v, want %v", got, want)
	}
}

func TestCharacterizeReportsIO(t *testing.T) {
	m := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 4, Vocab: 20})
	r, err := characterize(newTestAnalyzer(t, m), 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.IOBytes != float64(2*16*4*4) {
		t.Fatalf("IOBytes = %v", r.IOBytes)
	}
	if r.IOBytes >= r.BytesPerStep {
		t.Fatal("IO should be tiny next to step bytes")
	}
}

func TestHalfPrecisionHalvesFootprint(t *testing.T) {
	// The paper's §6.2.3 low-precision direction: fp16 weights/activations
	// halve both footprint and bytes accessed.
	full := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 4, Vocab: 50})
	half := models.BuildWordLM(models.WordLMConfig{Layers: 1, SeqLen: 4, Vocab: 50,
		DType: tensor.F16})
	env32 := full.Env(256, 16)
	env16 := half.Env(256, 16)
	f32, err := full.Graph.Footprint(env32, graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := half.Graph.Footprint(env16, graph.PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	ratio := f32.PeakBytes / f16.PeakBytes
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("fp16 footprint ratio = %.2f, want ~2 (ids stay i32)", ratio)
	}
	// FLOPs unchanged.
	a := symbolic.MustEval(full.FLOPsExpr(), env32)
	c := symbolic.MustEval(half.FLOPsExpr(), env16)
	if a != c {
		t.Fatal("precision changed FLOPs")
	}
}

func TestHalfPrecisionAllDomainsBuild(t *testing.T) {
	ms := []*models.Model{
		models.BuildCharLM(models.CharLMConfig{RecurrenceDepth: 2, SeqLen: 3, Vocab: 20,
			DType: tensor.F16}),
		models.BuildResNet(models.ResNetConfig{Blocks: [4]int{1, 1, 1, 1}, Classes: 10,
			Image: 32, DType: tensor.F16}),
	}
	for _, m := range ms {
		if err := m.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}
