package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	cat "catamount"
	"catamount/internal/obs"
)

// sharedEngine keeps model build+compile cost to once for the whole test
// binary; individual tests construct their own Servers over it.
var sharedEngine = cat.NewEngine()

func newTestServer(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = sharedEngine
	}
	return New(cfg)
}

// errMessage digs the human-readable message out of the v1 error envelope
// {"error": {"code", "message", "request_id"}}.
func errMessage(body map[string]any) string {
	env, _ := body["error"].(map[string]any)
	msg, _ := env["message"].(string)
	return msg
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return request(t, s, http.MethodGet, path, nil)
}

func request(t *testing.T, s *Server, method, path string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var decoded map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			// Non-object payloads (arrays) are fine; callers that care decode
			// themselves.
			decoded = nil
		}
	}
	return rec, decoded
}

func TestHealthz(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

func TestDomainsAndAccelerators(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/domains")
	if rec.Code != http.StatusOK {
		t.Fatalf("domains = %d %s", rec.Code, rec.Body)
	}
	if n := len(body["domains"].([]any)); n != 5 {
		t.Fatalf("domains = %d, want 5", n)
	}
	rec, body = get(t, s, "/v1/accelerators")
	if rec.Code != http.StatusOK {
		t.Fatalf("accelerators = %d %s", rec.Code, rec.Body)
	}
	accs := body["accelerators"].([]any)
	if len(accs) < 5 {
		t.Fatalf("catalog has %d entries, want >= 5", len(accs))
	}
	first := accs[0].(map[string]any)
	if first["name"] != "target-v100-class" {
		t.Fatalf("catalog[0] = %v", first["name"])
	}
}

func TestAnalyzeAndCacheHit(t *testing.T) {
	s := newTestServer(Config{})
	const path = "/v1/analyze?domain=wordlm&params=1e8&batch=64"
	rec1, body := get(t, s, path)
	if rec1.Code != http.StatusOK {
		t.Fatalf("analyze = %d %s", rec1.Code, rec1.Body)
	}
	req := body["requirements"].(map[string]any)
	if req["params"].(float64) < 0.9e8 || req["params"].(float64) > 1.1e8 {
		t.Fatalf("solved params = %v, want ~1e8", req["params"])
	}
	if body["accelerator"] != "target-v100-class" {
		t.Fatalf("default accelerator = %v", body["accelerator"])
	}
	if body["step_seconds"].(float64) <= 0 {
		t.Fatalf("step_seconds = %v", body["step_seconds"])
	}

	m := s.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 0 {
		t.Fatalf("after first request: %+v", m)
	}
	rec2, _ := get(t, s, path)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second analyze = %d", rec2.Code)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cached response differs from computed one")
	}
	m = s.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("after second request: %+v", m)
	}
	if m.CacheEntries != 1 {
		t.Fatalf("cache entries = %d", m.CacheEntries)
	}
}

func TestAnalyzeOnCatalogAccelerator(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/analyze?domain=charlm&params=5e7&accel=a100")
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze on a100 = %d %s", rec.Code, rec.Body)
	}
	if body["accelerator"] != "a100-class" {
		t.Fatalf("accelerator = %v", body["accelerator"])
	}
	// Same query on a faster part must not collide in the cache.
	rec2, body2 := get(t, s, "/v1/analyze?domain=charlm&params=5e7&accel=h100")
	if rec2.Code != http.StatusOK {
		t.Fatalf("analyze on h100 = %d", rec2.Code)
	}
	if body2["step_seconds"].(float64) >= body["step_seconds"].(float64) {
		t.Fatalf("h100 step %v not faster than a100 %v",
			body2["step_seconds"], body["step_seconds"])
	}
}

func TestCoalescingOneUpstreamComputation(t *testing.T) {
	const k = 8
	s := newTestServer(Config{MaxInFlight: 2 * k})
	gate := make(chan struct{})
	s.computeHook = func(string) { <-gate }

	var wg sync.WaitGroup
	codes := make([]int, k)
	bodies := make([][]byte, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet,
				"/v1/analyze?domain=nmt&params=2e8&batch=32", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}

	// All K requests target one key on a cold cache: exactly one upstream
	// computation may start, and the other K-1 must coalesce onto it.
	// The hook keeps the computation pinned until every request has joined.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := s.Metrics()
		if m.CacheMisses == 1 && m.Coalesced == k-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < k; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Fatalf("upstream computations = %d, want exactly 1 for %d concurrent requests", m.CacheMisses, k)
	}
	if m.Coalesced != k-1 {
		t.Fatalf("coalesced = %d, want %d", m.Coalesced, k-1)
	}
	// The computation backfilled the cache: one more request is a pure hit.
	rec, _ := get(t, s, "/v1/analyze?domain=nmt&params=2e8&batch=32")
	if rec.Code != http.StatusOK || s.Metrics().CacheHits != 1 {
		t.Fatalf("post-coalesce request: code %d, metrics %+v", rec.Code, s.Metrics())
	}
}

func TestMalformedRequests(t *testing.T) {
	s := newTestServer(Config{})
	cases := []struct {
		name, path string
		want       int
	}{
		{"missing domain", "/v1/analyze?params=1e8", http.StatusBadRequest},
		{"unknown domain", "/v1/analyze?domain=tabular&params=1e8", http.StatusBadRequest},
		{"missing params", "/v1/analyze?domain=wordlm", http.StatusBadRequest},
		{"bad params", "/v1/analyze?domain=wordlm&params=banana", http.StatusBadRequest},
		{"negative params", "/v1/analyze?domain=wordlm&params=-5", http.StatusBadRequest},
		{"bad batch", "/v1/analyze?domain=wordlm&params=1e8&batch=NaN", http.StatusBadRequest},
		{"unknown accel", "/v1/analyze?domain=wordlm&params=1e8&accel=abacus", http.StatusBadRequest},
		{"unknown figure", "/v1/figures/42", http.StatusBadRequest},
		{"figure 6 needs domain", "/v1/figures/6", http.StatusBadRequest},
		{"unknown subbatch policy", "/v1/subbatch?domain=wordlm&policy=vibes", http.StatusBadRequest},
		{"bad tol", "/v1/subbatch?domain=wordlm&tol=-1", http.StatusBadRequest},
		{"unknown path", "/v1/nonsense", http.StatusNotFound},
	}
	for _, tc := range cases {
		rec, body := get(t, s, tc.path)
		if rec.Code != tc.want {
			t.Errorf("%s: code = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		if tc.want == http.StatusBadRequest && (body == nil || errMessage(body) == "") {
			t.Errorf("%s: missing error envelope: %s", tc.name, rec.Body)
		}
	}
	// Wrong method on a registered pattern.
	rec, _ := request(t, s, http.MethodDelete, "/v1/analyze?domain=wordlm&params=1e8", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE analyze = %d, want 405", rec.Code)
	}
	// None of the malformed requests may have reached the engine or cache.
	if m := s.Metrics(); m.CacheMisses != 0 || m.CacheEntries != 0 {
		t.Fatalf("malformed requests touched the cache: %+v", m)
	}
}

// TestMixedCaseDomainOnEveryEndpoint: analyze, sweep and plan resolve a
// domain name by one rule, so a mixed-case name, with or without
// surrounding space, names the same domain on all three.
func TestMixedCaseDomainOnEveryEndpoint(t *testing.T) {
	s := newTestServer(Config{})
	cases := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/analyze?domain=WordLM&params=1e8&batch=64", ""},
		{http.MethodGet, "/v1/analyze?domain=%20WordLM%20&params=1e8&batch=64", ""},
		{http.MethodPost, "/v1/sweep", `{"domains":["WordLM"],"params":[1e8],"subbatches":[64]}`},
		{http.MethodPost, "/v1/plan", `{"domain":" WordLM ","accelerators":["v100"],"subbatches":[32],"worker_counts":[16]}`},
	}
	for _, tc := range cases {
		rec, _ := request(t, s, tc.method, tc.path, []byte(tc.body))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s %s = %d, want 200: %s", tc.method, tc.path, tc.body, rec.Code, rec.Body)
		}
	}
}

func TestUnservableRequestIs422(t *testing.T) {
	// Valid syntax, impossible request: deterministic compute errors are
	// the client's problem, not a 500.
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/analyze?domain=wordlm&params=1e300&batch=64")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unreachable params = %d, want 422 (%s)", rec.Code, rec.Body)
	}
	if errMessage(body) == "" {
		t.Fatalf("missing error envelope: %s", rec.Body)
	}
}

// TestAnalyzeOverflowingPointIs422: a point whose FLOPs overflow float64
// answers 422 with the message naming the field, under both cost models,
// instead of the JSON encoder's "unsupported value: +Inf".
func TestAnalyzeOverflowingPointIs422(t *testing.T) {
	s := newTestServer(Config{})
	for _, cm := range []string{"graph", "perop"} {
		rec, body := get(t, s, "/v1/analyze?domain=image&params=1e8&batch=1e300&costmodel="+cm)
		want := "core: flops_per_step is +Inf: the point overflows float64"
		if rec.Code != http.StatusUnprocessableEntity || errMessage(body) != want {
			t.Fatalf("%s: %d %s; want 422 with %q", cm, rec.Code, rec.Body, want)
		}
	}
}

// TestProfileOverflowingPointIs422: a profile whose totals overflow
// float64 answers 422 naming the first bad field in JSON order, instead
// of the JSON encoder's "unsupported value: +Inf".
func TestProfileOverflowingPointIs422(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/profile?domain=image&params=1e8&batch=1e300")
	want := "core: by_kind[0].flops is +Inf: the point overflows float64"
	if rec.Code != http.StatusUnprocessableEntity || errMessage(body) != want {
		t.Fatalf("%d %s; want 422 with %q", rec.Code, rec.Body, want)
	}
}

func TestSubbatchPolicyAliasesShareCache(t *testing.T) {
	s := newTestServer(Config{})
	for _, p := range []string{"min-time", "min-time-per-sample"} {
		rec, _ := get(t, s, "/v1/subbatch?domain=wordlm&params=1e8&policy="+p)
		if rec.Code != http.StatusOK {
			t.Fatalf("policy %s = %d %s", p, rec.Code, rec.Body)
		}
	}
	if m := s.Metrics(); m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("aliased policies did not share a cache entry: %+v", m)
	}
}

func TestCustomAcceleratorUpload(t *testing.T) {
	s := newTestServer(Config{})
	custom := `{"name":"hypothetical-4x","peak_flops":6.268e13,"cache_bytes":2.4e7,
		"mem_bandwidth":3.592e12,"mem_capacity":1.28e11,"interconnect_bw":2.24e11,
		"achievable_compute":0.8,"achievable_mem_bw":0.7}`
	rec, body := request(t, s, http.MethodPost,
		"/v1/analyze?domain=wordlm&params=1e8&batch=64", []byte(custom))
	if rec.Code != http.StatusOK {
		t.Fatalf("custom accel analyze = %d %s", rec.Code, rec.Body)
	}
	if body["accelerator"] != "hypothetical-4x" {
		t.Fatalf("accelerator = %v", body["accelerator"])
	}
	// Invalid custom device is a 4xx, not a NaN-poisoned 200.
	bad := `{"name":"broken","peak_flops":-1,"mem_bandwidth":1e11,"mem_capacity":1e9,
		"achievable_compute":0.8,"achievable_mem_bw":0.7}`
	rec, _ = request(t, s, http.MethodPost,
		"/v1/analyze?domain=wordlm&params=1e8", []byte(bad))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid custom accel = %d, want 400", rec.Code)
	}
}

func TestCacheKeyInjectionViaCustomDeviceName(t *testing.T) {
	// A custom device whose name embeds key separators must not be able to
	// collide with a different request's cache entry. This name, with the
	// target's exact numeric fields, forged the key of the default-target
	// batch=64 query under the old flat key scheme.
	evil := cat.TargetAccelerator()
	evil.Name = "4|" + evil.Name
	body, err := json.Marshal(evil)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(Config{})
	rec, _ := request(t, s, http.MethodPost, "/v1/analyze?domain=wordlm&params=1e8&batch=6", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("poison attempt = %d %s", rec.Code, rec.Body)
	}
	rec, resp := get(t, s, "/v1/analyze?domain=wordlm&params=1e8&batch=64")
	if rec.Code != http.StatusOK {
		t.Fatalf("victim request = %d", rec.Code)
	}
	req := resp["requirements"].(map[string]any)
	if got := req["batch"].(float64); got != 64 {
		t.Fatalf("cache poisoned: batch = %v, want 64", got)
	}
	if resp["accelerator"] != "target-v100-class" {
		t.Fatalf("cache poisoned: accelerator = %v", resp["accelerator"])
	}
	if m := s.Metrics(); m.CacheMisses != 2 || m.CacheHits != 0 {
		t.Fatalf("keys collided: %+v", m)
	}
}

func TestSubbatchEndpoint(t *testing.T) {
	s := newTestServer(Config{})
	rec, body := get(t, s, "/v1/subbatch?domain=wordlm&params=1e8&policy=min-time")
	if rec.Code != http.StatusOK {
		t.Fatalf("subbatch = %d %s", rec.Code, rec.Body)
	}
	chosen := body["chosen"].(map[string]any)
	if _, ok := chosen["min-time-per-sample"]; !ok {
		t.Fatalf("chosen missing policy: %v", chosen)
	}
	if len(body["points"].([]any)) != 19 {
		t.Fatalf("sweep has %d points, want 19 (2^0..2^18)", len(body["points"].([]any)))
	}
}

func TestCheckpointUploadAnalyze(t *testing.T) {
	m, err := cat.Build(cat.WordLM)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(Config{})

	// Missing bindings name the free symbols.
	rec, body := request(t, s, http.MethodPost, "/v1/checkpoint/analyze", buf.Bytes())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unbound checkpoint = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if msg := errMessage(body); !strings.Contains(msg, m.SizeSymbol) {
		t.Fatalf("error %q does not name symbol %q", msg, m.SizeSymbol)
	}

	path := fmt.Sprintf("/v1/checkpoint/analyze?%s=1024&%s=64", m.SizeSymbol, m.BatchSymbol)
	rec, body = request(t, s, http.MethodPost, path, buf.Bytes())
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint analyze = %d %s", rec.Code, rec.Body)
	}
	if body["params"].(float64) <= 0 || body["flops"].(float64) <= 0 {
		t.Fatalf("degenerate characterization: %s", rec.Body)
	}
	if body["footprint_bytes"].(float64) <= 0 {
		t.Fatalf("no footprint: %s", rec.Body)
	}
	// The uploaded graph must characterize like the library path (the
	// library re-solves the size by bisection, so allow its tolerance).
	want, err := cat.AnalyzeModel(m, body["params"].(float64), 64)
	if err != nil {
		t.Fatal(err)
	}
	got := body["flops"].(float64)
	if rel := math.Abs(got-want.FLOPsPerStep) / want.FLOPsPerStep; rel > 1e-6 {
		t.Fatalf("uploaded FLOPs %v != library %v (rel %v)", got, want.FLOPsPerStep, rel)
	}

	// Malformed body.
	rec, _ = request(t, s, http.MethodPost, "/v1/checkpoint/analyze?h=1&b=1", []byte("{nope"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad checkpoint JSON = %d, want 400", rec.Code)
	}
}

func TestCheckpointRejectsNegativeBinding(t *testing.T) {
	// A negative batch makes activation sizes negative. The footprint
	// simulator rejects such sizes, so the upload is unprocessable rather
	// than answered with a footprint from a broken schedule.
	m, err := cat.Build(cat.WordLM)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(Config{})
	path := fmt.Sprintf("/v1/checkpoint/analyze?%s=1024&%s=-64", m.SizeSymbol, m.BatchSymbol)
	rec, body := request(t, s, http.MethodPost, path, buf.Bytes())
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("negative binding = %d, want 422 (%s)", rec.Code, rec.Body)
	}
	if msg := errMessage(body); !strings.Contains(msg, "negative or not finite") {
		t.Fatalf("error %q does not explain the rejected size", msg)
	}
}

// TestCheckpointOverflowingPointIs422: bindings whose tensor sizes are
// finite but whose FLOPs overflow float64 answer 422 naming the field,
// in the error envelope with the request's ID, instead of a 500 from the
// JSON encoder.
func TestCheckpointOverflowingPointIs422(t *testing.T) {
	m, err := cat.Build(cat.WordLM)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(Config{})
	path := fmt.Sprintf("/v1/checkpoint/analyze?%s=5e152&%s=100", m.SizeSymbol, m.BatchSymbol)
	rec, body := request(t, s, http.MethodPost, path, buf.Bytes())
	want := "flops is +Inf: the point overflows float64"
	if rec.Code != http.StatusUnprocessableEntity || errMessage(body) != want {
		t.Fatalf("%d %s; want 422 with %q", rec.Code, rec.Body, want)
	}
	if env, _ := body["error"].(map[string]any); env["request_id"] == "" || env["request_id"] == nil {
		t.Fatalf("error envelope has no request_id: %s", rec.Body)
	}
}

// TestCheckpointTransposeNodes: a transpose op holds its permutation in a
// slice, so its value cannot key the graph's FLOPs memo; graphs holding
// transposes must still derive and answer 200 (a panic would surface as
// the handler's 400).
func TestCheckpointTransposeNodes(t *testing.T) {
	g := `{"version":1,"name":"t","tensors":[
		{"name":"x","kind":"input","dtype":"f32","shape":["b","h"]},
		{"name":"y","kind":"activation","dtype":"f32","shape":["h","b"]},
		{"name":"z","kind":"activation","dtype":"f32","shape":["b","h"]}],
		"nodes":[
		{"name":"t1","op":"transpose","attrs":{"perm":[1,0]},"inputs":["x"],"outputs":["y"]},
		{"name":"t2","op":"transpose","attrs":{"perm":[1,0]},"inputs":["y"],"outputs":["z"]}]}`
	s := newTestServer(Config{})
	rec, body := request(t, s, http.MethodPost, "/v1/checkpoint/analyze?b=4&h=8", []byte(g))
	if rec.Code != http.StatusOK {
		t.Fatalf("transpose checkpoint = %d %s", rec.Code, rec.Body)
	}
	// Each transpose reads and writes 4*8 f32 values.
	if body["flops"].(float64) != 0 || body["bytes"].(float64) != 2*2*4*8*4 {
		t.Fatalf("unexpected costs: %s", rec.Body)
	}
}

func TestCheckpointSymbolNamedPolicy(t *testing.T) {
	// A graph dimension named "policy" collides with the reserved schedule
	// selector and must bind through the "bind." escape prefix.
	g := `{"version":1,"name":"p","tensors":[
		{"name":"x","kind":"input","dtype":"f32","shape":["policy"]},
		{"name":"y","kind":"activation","dtype":"f32","shape":["policy"]}],
		"nodes":[{"name":"n","op":"unary","attrs":{"fn":"relu","flops":1,"factor":1},
		"inputs":["x"],"outputs":["y"]}]}`
	s := newTestServer(Config{})
	rec, body := request(t, s, http.MethodPost, "/v1/checkpoint/analyze?policy=fifo", []byte(g))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unbound = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if msg := errMessage(body); !strings.Contains(msg, "bind.policy") {
		t.Fatalf("error %q does not point at the escape prefix", msg)
	}
	rec, body = request(t, s, http.MethodPost,
		"/v1/checkpoint/analyze?policy=fifo&bind.policy=8", []byte(g))
	if rec.Code != http.StatusOK {
		t.Fatalf("escaped binding = %d %s", rec.Code, rec.Body)
	}
	if body["policy"] != "fifo" || body["bindings"].(map[string]any)["policy"].(float64) != 8 {
		t.Fatalf("unexpected payload: %s", rec.Body)
	}
}

func TestHostileCheckpointDoesNotCrashServer(t *testing.T) {
	// A conv2d with one input passes graph validation but panics during
	// cost derivation; the detached goroutine must contain it as a 4xx,
	// not kill the process.
	evil := `{"version":1,"name":"evil","tensors":[
		{"name":"x","kind":"input","dtype":"f32","shape":["1","1","4","4"]},
		{"name":"y","kind":"activation","dtype":"f32","shape":["1","1","4","4"]}],
		"nodes":[{"name":"c","op":"conv2d","attrs":{"strideH":1,"strideW":1},
		"inputs":["x"],"outputs":["y"]}]}`
	s := newTestServer(Config{})
	rec, body := request(t, s, http.MethodPost, "/v1/checkpoint/analyze", []byte(evil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("hostile checkpoint = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if msg := errMessage(body); !strings.Contains(msg, "invalid checkpoint graph") {
		t.Fatalf("error envelope %q", msg)
	}
	// The server is still alive and serving.
	if rec, _ := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after hostile upload = %d", rec.Code)
	}
}

func TestComputePanicContained(t *testing.T) {
	s := newTestServer(Config{})
	s.computeHook = func(string) { panic("boom") }
	rec, body := get(t, s, "/v1/analyze?domain=wordlm&params=1e8&batch=64")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking compute = %d, want 500 (%s)", rec.Code, rec.Body)
	}
	if msg := errMessage(body); !strings.Contains(msg, "internal computation failure") {
		t.Fatalf("error envelope %q", msg)
	}
	// The flight key was unregistered and the process survived: the same
	// request succeeds once the fault is gone.
	s.computeHook = nil
	rec, _ = get(t, s, "/v1/analyze?domain=wordlm&params=1e8&batch=64")
	if rec.Code != http.StatusOK {
		t.Fatalf("request after contained panic = %d %s", rec.Code, rec.Body)
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTestServer(Config{CacheEntries: 2})
	paths := []string{
		"/v1/analyze?domain=wordlm&params=1e8&batch=64",
		"/v1/analyze?domain=wordlm&params=2e8&batch=64",
		"/v1/analyze?domain=wordlm&params=3e8&batch=64",
	}
	for _, p := range paths {
		if rec, _ := get(t, s, p); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", p, rec.Code)
		}
	}
	m := s.Metrics()
	if m.CacheEntries != 2 {
		t.Fatalf("cache entries = %d, want bounded at 2", m.CacheEntries)
	}
	// Oldest was evicted: re-requesting it computes again.
	get(t, s, paths[0])
	if m := s.Metrics(); m.CacheMisses != 4 {
		t.Fatalf("misses = %d, want 4 (evicted entry recomputed)", m.CacheMisses)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestServer(Config{Timeout: 50 * time.Millisecond})
	release := make(chan struct{})
	s.computeHook = func(string) { <-release }
	defer close(release)

	rec, _ := get(t, s, "/v1/analyze?domain=speech&params=1e8&batch=16")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d, want 504", rec.Code)
	}
	if m := s.Metrics(); m.Timeouts != 1 {
		t.Fatalf("timeouts = %d", m.Timeouts)
	}
}

func TestConcurrencyLimiterRejects(t *testing.T) {
	s := newTestServer(Config{MaxInFlight: 1, Timeout: 10 * time.Second})
	release := make(chan struct{})
	s.computeHook = func(string) { <-release }

	var wg sync.WaitGroup
	first := httptest.NewRecorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/v1/analyze?domain=image&params=6e7&batch=32", nil)
		s.ServeHTTP(first, req)
	}()
	// Wait until the first request holds the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// A different key cannot coalesce and must be shed at the limiter —
	// while probes stay reachable.
	rec, _ := get(t, s, "/v1/analyze?domain=image&params=7e7&batch=32")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request = %d, want 503", rec.Code)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected = %d", m.Rejected)
	}
	if hrec, _ := get(t, s, "/healthz"); hrec.Code != http.StatusOK {
		t.Fatalf("healthz during saturation = %d, want 200", hrec.Code)
	}
	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("admitted request = %d %s", first.Code, first.Body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(Config{})
	get(t, s, "/v1/analyze?domain=wordlm&params=1e8&batch=64")
	get(t, s, "/v1/analyze?domain=wordlm&params=1e8&batch=64")
	rec, body := get(t, s, "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if body["cache_hits"].(float64) != 1 || body["cache_misses"].(float64) != 1 {
		t.Fatalf("metrics payload: %s", rec.Body)
	}
	if body["max_in_flight"].(float64) <= 0 || body["cache_limit"].(float64) != 1024 {
		t.Fatalf("limits missing from metrics: %s", rec.Body)
	}
}

func TestFigureEndpoints(t *testing.T) {
	if testing.Short() {
		// Figure sweeps span every domain; keep the short suite fast and
		// exercise only the cheap curve endpoint.
		s := newTestServer(Config{})
		rec, _ := get(t, s, "/v1/figures/curve?domain=wordlm")
		if rec.Code != http.StatusOK {
			t.Fatalf("figure curve = %d %s", rec.Code, rec.Body)
		}
		return
	}
	s := newTestServer(Config{})
	for _, fig := range []string{"curve?domain=wordlm", "subbatch", "dataparallel", "subbatch?accel=h100"} {
		rec, _ := get(t, s, "/v1/figures/"+fig)
		if rec.Code != http.StatusOK {
			t.Fatalf("figure %s = %d %s", fig, rec.Code, rec.Body)
		}
	}
}

// TestWriteJSONEncodingFailureKeepsRequestID: a value json cannot encode
// (+Inf) is answered with a 500 envelope that still names the request.
func TestWriteJSONEncodingFailureKeepsRequestID(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	req = req.WithContext(obs.WithRequestID(req.Context(), "rid-inf"))
	rec := httptest.NewRecorder()
	writeJSON(rec, req, map[string]float64{"flops": math.Inf(1)})
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%d %s: %v", rec.Code, rec.Body, err)
	}
	env, _ := body["error"].(map[string]any)
	if rec.Code != http.StatusInternalServerError || env["request_id"] != "rid-inf" ||
		!strings.Contains(errMessage(body), "unsupported value: +Inf") {
		t.Fatalf("%d %s; want 500 with request_id rid-inf and the encoder's message", rec.Code, rec.Body)
	}
}
