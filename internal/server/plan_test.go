package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a 10s deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// planBody is a small, fast search reused across the endpoint tests.
func planBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"domain":        "wordlm",
		"accelerators":  []string{"v100", "cpu"},
		"subbatches":    []float64{32},
		"worker_counts": []int{1, 16, 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanEndpoint(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := request(t, s, http.MethodPost, "/v1/plan", planBody(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d %s", rec.Code, rec.Body)
	}
	target := body["target"].(map[string]any)
	if target["target_err"].(float64) != 2.48 {
		t.Fatalf("resolved target err = %v, want the Table 1 desired SOTA 2.48", target["target_err"])
	}
	plans := body["plans"].([]any)
	if len(plans) != 2*1*3*3 {
		t.Fatalf("plans = %d, want 18", len(plans))
	}
	if body["frontier"] == nil {
		t.Fatal("missing frontier")
	}
	if len(body["frontier"].([]any)) == 0 {
		t.Fatal("empty frontier")
	}

	// Cache parity with the point endpoints: a repeat is a byte-identical
	// cache hit, and plan_runs does not advance.
	m1 := s.Metrics()
	if m1.PlanRuns != 1 || m1.PlanPlans != 18 {
		t.Fatalf("after first plan: runs=%d plans=%d", m1.PlanRuns, m1.PlanPlans)
	}
	rec2, _ := request(t, s, http.MethodPost, "/v1/plan", planBody(t))
	if rec2.Code != http.StatusOK {
		t.Fatalf("second plan = %d", rec2.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cached plan response differs from the original")
	}
	m2 := s.Metrics()
	if m2.PlanRuns != 1 || m2.CacheHits != m1.CacheHits+1 {
		t.Fatalf("repeat plan recomputed: %+v", m2)
	}
}

func TestPlanCoalescesConcurrentSearches(t *testing.T) {
	s := newTestServer(Config{Engine: nil, MaxInFlight: 64})
	gate := make(chan struct{})
	s.computeHook = func(string) { <-gate }

	const k = 8
	codes := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, _ := request(t, s, http.MethodPost, "/v1/plan", planBody(t))
			codes[i] = rec.Code
		}(i)
	}
	// Wait until every request joined the flight, then release the leader.
	waitFor(t, func() bool {
		m := s.Metrics()
		return m.CacheMisses == 1 && m.Coalesced == k-1
	})
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	m := s.Metrics()
	if m.PlanRuns != 1 {
		t.Fatalf("plan_runs = %d, want 1 (single-flighted)", m.PlanRuns)
	}
	if m.Coalesced != k-1 {
		t.Fatalf("coalesced = %d, want %d", m.Coalesced, k-1)
	}
}

func TestPlanSpecValidation(t *testing.T) {
	s := newTestServer(Config{})
	for name, body := range map[string]string{
		"malformed json":  `{`,
		"unknown field":   `{"domain":"wordlm","flux_capacitors":3}`,
		"unknown domain":  `{"domain":"tabular"}`,
		"bad target":      `{"domain":"wordlm","target_err":0.5}`,
		"bad worker":      `{"domain":"wordlm","worker_counts":[0]}`,
		"bad accelerator": `{"domain":"wordlm","accelerators":["abacus"]}`,
	} {
		rec, _ := request(t, s, http.MethodPost, "/v1/plan", []byte(body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}

	// Oversized searches are rejected up front, like oversized sweeps.
	small := newTestServer(Config{MaxSweepPoints: 10})
	rec, _ := request(t, small, http.MethodPost, "/v1/plan", planBody(t))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized search = %d, want 400", rec.Code)
	}
	if m := small.Metrics(); m.PlanRuns != 0 {
		t.Fatalf("oversized search still ran: %+v", m)
	}
}

func TestAcceleratorsIncludeAliasesAndPricing(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/accelerators")
	if rec.Code != http.StatusOK {
		t.Fatalf("accelerators = %d %s", rec.Code, rec.Body)
	}
	aliases := body["aliases"].(map[string]any)
	if aliases["v100"] != "target-v100-class" {
		t.Fatalf("aliases missing v100: %v", aliases)
	}
	for _, raw := range body["accelerators"].([]any) {
		acc := raw.(map[string]any)
		if acc["cost_per_hour_usd"].(float64) <= 0 {
			t.Errorf("catalog entry %v unpriced", acc["name"])
		}
		if acc["tdp_watts"].(float64) <= 0 {
			t.Errorf("catalog entry %v missing TDP", acc["name"])
		}
	}
}

// TestPlanOverflowingSubbatchInfeasible: every plan of a search whose only
// subbatch overflows the image model's FLOPs is infeasible with a
// "characterize: " reason, and the answer is a 200 (it used to be a 422
// "json: unsupported value: +Inf").
func TestPlanOverflowingSubbatchInfeasible(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := request(t, s, http.MethodPost, "/v1/plan",
		[]byte(`{"domain":"image","subbatches":[1e300],"worker_counts":[1]}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d %s", rec.Code, rec.Body)
	}
	plans := body["plans"].([]any)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range plans {
		reasons, _ := p.(map[string]any)["infeasible"].([]any)
		if len(reasons) != 1 || !strings.HasPrefix(reasons[0].(string), "characterize: sweep: flops_per_step is +Inf") {
			t.Fatalf("plan %v: reasons %v", p, reasons)
		}
	}
}
