package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	cat "catamount"
)

// contract is the part of ../BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMain lets the test binary serve as the cold set-up process that a
// run with more than one set-up starts, as the benchmark binary does.
func TestMain(m *testing.M) {
	if code, ok := runColdSetup(context.Background(), os.Stdout, os.Stderr); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at a tiny op count, with tracing off and
// on, and requires every contract metric, with its unit, and passing
// output checks. serve_mixed with tracing off runs two set-ups, so the
// second, in a cold process of its own, starts and stops a second server.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"sweep_grid", "plan_search", "serve_mixed"}) {
		t.Fatalf("BENCHMARK.json workloads %v", names)
	}
	for _, w := range names {
		for trace, want := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
			var out bytes.Buffer
			args := options{workload: w, seed: 3, seconds: 1, trace: trace == 1, setups: 1}
			if w == "serve_mixed" && trace == 0 {
				args.setups = 2
			}
			if err := report(context.Background(), args, &out); err != nil {
				t.Fatalf("%+v: %v", args, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var info runInfo
			if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
				t.Fatalf("%+v: first line: %v", args, err)
			}
			if len(info.SetupS) != args.setups {
				t.Errorf("%+v: %d set-ups timed", args, len(info.SetupS))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%+v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%+v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%+v: %d metrics printed, contract lists %d", args, len(res.Metrics), len(want))
			}
			for _, cm := range want {
				got, ok := res.Metrics[cm.Name]
				if !ok {
					t.Errorf("%+v: metric %s missing", args, cm.Name)
				} else if got.Unit != cm.Unit {
					t.Errorf("%+v: metric %s unit %q, contract says %q", args, cm.Name, got.Unit, cm.Unit)
				}
			}
		}
	}
}

// TestChecksRejectCorruption feeds each workload's output check a real
// output and a corrupted copy of it.
func TestChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	eng := cat.NewEngine()

	pts, err := eng.SweepAll(ctx, cat.SweepSpec{Domains: []string{"image"}, Params: []float64{1e8},
		Subbatches: []float64{32}, Accelerators: []string{"a100-class"}, CostModel: "perop"})
	if err != nil || len(pts) != 1 {
		t.Fatalf("sweep: %v, %d points", err, len(pts))
	}
	if err := checkSweepPoint(ctx, eng, pts[0], "perop"); err != nil {
		t.Fatalf("sweep check rejects a good point: %v", err)
	}
	bad := pts[0]
	req := *bad.Requirements
	req.FootprintBytes++
	bad.Requirements = &req
	if checkSweepPoint(ctx, eng, bad, "perop") == nil {
		t.Error("sweep check accepts a corrupted footprint")
	}
	bad = pts[0]
	bad.StepSeconds *= 1.5
	if checkSweepPoint(ctx, eng, bad, "perop") == nil {
		t.Error("sweep check accepts a corrupted step time")
	}

	spec := cat.PlanSpec{Domain: "image", TargetErr: 0.1}
	pr, err := eng.PlanSearch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFrontier(eng, spec, pr.Frontier); err != nil {
		t.Fatalf("plan check rejects a good frontier: %v", err)
	}
	frontier := slices.Clone(pr.Frontier)
	frontier[0].TrainHours *= 2
	if checkFrontier(eng, spec, frontier) == nil {
		t.Error("plan check accepts a corrupted frontier")
	}
	if n := verifyPlans(eng, []searched{{spec, pr.Frontier}}); n != 0 {
		t.Fatalf("plan verify fails a good search %d times", n)
	}
	// A search that succeeds with nothing on its frontier has a nil one.
	if n := verifyPlans(eng, []searched{{spec, pr.Frontier}, {spec, nil}}); n != 1 {
		t.Errorf("plan verify counts %d failures for one empty frontier", n)
	}

	hot := request{method: "GET", path: "/v1/asymptotics", hot: 0}
	body := []byte(`{"rows":[1,2,3]}`)
	warmed := []digest{digestOf(body)}
	if err := checkReply(hot, body, warmed); err != nil {
		t.Fatalf("hot check rejects the warm-up body: %v", err)
	}
	if checkReply(hot, []byte(`{"rows":[1,2,4]}`), warmed) == nil {
		t.Error("hot check accepts a changed body")
	}
	miss := request{method: "GET", path: "/v1/analyze?domain=nmt&params=1e8", hot: -1, domain: "nmt"}
	if err := checkReply(miss, []byte(`{"requirements":{"domain":"nmt"}}`), nil); err != nil {
		t.Fatalf("miss check rejects a good reply: %v", err)
	}
	for _, b := range []string{`{"requirements":{"domain":"image"}}`, `{"requirements":`, `{}`} {
		if checkReply(miss, []byte(b), nil) == nil {
			t.Errorf("miss check accepts %s", b)
		}
	}
}
