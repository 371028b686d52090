package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServer shares one warmed engine across benchmark iterations so the
// numbers isolate serving cost from one-time model compilation.
func benchServer(b *testing.B, cacheEntries int) *Server {
	b.Helper()
	s := New(Config{Engine: sharedEngine, CacheEntries: cacheEntries})
	// Warm the domain model outside the timed region.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/analyze?domain=wordlm&params=1.03e9&batch=128", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d %s", rec.Code, rec.Body)
	}
	return s
}

// BenchmarkServerAnalyzeCached serves one hot query from the LRU: the
// steady state of frontier-dashboard traffic.
func BenchmarkServerAnalyzeCached(b *testing.B) {
	s := benchServer(b, 1024)
	req := httptest.NewRequest(http.MethodGet,
		"/v1/analyze?domain=wordlm&params=1.03e9&batch=128", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
	b.StopTimer()
	if m := s.Metrics(); m.CacheHits < int64(b.N) {
		b.Fatalf("expected all-hit serving, metrics %+v", m)
	}
}

// BenchmarkServerAnalyzeUncached forces a miss per iteration (a 1-entry
// cache and alternating keys), so every request pays the full upstream
// computation: size solve, characterization, footprint traversal, marshal.
func BenchmarkServerAnalyzeUncached(b *testing.B) {
	s := benchServer(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf(
			"/v1/analyze?domain=wordlm&params=1.03e9&batch=%d", 128+i%2), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
}

// BenchmarkServerFrontierCached measures the heaviest cacheable query
// (the full Table 3 regeneration) served hot.
func BenchmarkServerFrontierCached(b *testing.B) {
	s := New(Config{Engine: sharedEngine})
	req := httptest.NewRequest(http.MethodGet, "/v1/frontier?accel=a100", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
}

// benchPaths is the hot working set: 32 distinct canonical keys, so the
// parallel load reads many cache entries rather than one.
func benchPaths() []string {
	paths := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		paths = append(paths, fmt.Sprintf(
			"/v1/analyze?domain=wordlm&params=1.03e9&batch=%d", 64+i))
	}
	return paths
}

// benchRequests warms every path through the server once (filling the
// cache) and returns the reusable request objects for the timed runs.
func benchRequests(s *Server, paths []string) ([]*http.Request, error) {
	reqs := make([]*http.Request, 0, len(paths))
	for _, p := range paths {
		req, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return nil, err
		}
		rec := &verdictRecorder{hdr: make(http.Header)}
		s.ServeHTTP(rec, req)
		if rec.status >= 400 {
			return nil, fmt.Errorf("warming %s: status %d", p, rec.status)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// BenchmarkServerAnalyzeParallel drives the cached hot path from
// b.RunParallel workers over a spread of keys — the measurement that
// shows (run with -cpu 1,4) how cached serving scales with cores through
// the response cache's one lock.
func BenchmarkServerAnalyzeParallel(b *testing.B) {
	s := New(Config{Engine: sharedEngine, CacheEntries: 1024, MaxInFlight: 256})
	paths := benchPaths()
	reqs, err := benchRequests(s, paths)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := &verdictRecorder{hdr: make(http.Header)}
		i := 0
		for pb.Next() {
			s.ServeHTTP(rec, reqs[i%len(reqs)])
			if rec.status >= 400 {
				b.Errorf("status %d", rec.status)
				return
			}
			rec.status = 0
			i++
		}
	})
	b.StopTimer()
	if m := s.Metrics(); m.CacheMisses > int64(len(paths)) {
		b.Fatalf("hot path recomputed: %d misses for %d keys", m.CacheMisses, len(paths))
	}
}

// TestCachedAtLeast10xFasterThanUncached pins the acceptance criterion:
// a cached request must be at least an order of magnitude cheaper than an
// uncached one. Benchmarks measure it precisely; this guards it in CI.
func TestCachedAtLeast10xFasterThanUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison is not run in -short mode")
	}
	cached := testing.Benchmark(BenchmarkServerAnalyzeCached)
	uncached := testing.Benchmark(BenchmarkServerAnalyzeUncached)
	cn, un := cached.NsPerOp(), uncached.NsPerOp()
	t.Logf("cached %d ns/op, uncached %d ns/op (%.1fx)", cn, un, float64(un)/float64(cn))
	if un < 10*cn {
		t.Fatalf("cached path only %.1fx faster than uncached (cached %d ns, uncached %d ns)",
			float64(un)/float64(cn), cn, un)
	}
}
