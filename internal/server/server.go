// Package server exposes a catamount.Engine as a concurrent HTTP/JSON
// analysis service — the serving layer the paper's "what will training at
// the accuracy frontier cost on hardware X?" question needs once queries
// arrive as traffic instead of batch scripts.
//
// Request flow: every query is reduced to a canonical key; a bounded LRU
// holds fully marshaled responses, and concurrent identical misses are
// coalesced through a single-flight group so K simultaneous requests cost
// one upstream computation. A semaphore bounds in-flight work, every
// request carries a deadline, and /metrics exposes hit/miss/coalesce/
// in-flight counters.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	cat "catamount"
	"catamount/internal/api"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/graphio"
	"catamount/internal/hw"
	"catamount/internal/jobs"
	"catamount/internal/lru"
	"catamount/internal/models"
	"catamount/internal/obs"
	"catamount/internal/parallel"
)

// Config parameterizes a Server. The zero value gets sensible defaults.
type Config struct {
	// Engine is the shared analysis session; nil creates a fresh one.
	Engine *cat.Engine
	// CacheEntries bounds the LRU response cache (default 1024).
	CacheEntries int
	// MaxInFlight bounds concurrently admitted requests
	// (default 4×GOMAXPROCS).
	MaxInFlight int
	// Timeout is the per-request deadline (default 30s).
	Timeout time.Duration
	// MaxSweepPoints bounds the grid size a single POST /v1/sweep may
	// stream (default 100000); larger grids belong on cmd/sweep.
	MaxSweepPoints int
	// Logger, when set, emits one structured line per request (method,
	// endpoint, status, bytes, duration, request ID). nil disables request
	// logging; metrics are recorded either way.
	Logger *slog.Logger
	// Jobs is the async job service behind /v1/jobs. Nil creates an
	// in-memory one over Engine (jobs then do not survive restarts);
	// catamountd passes a file-backed service when -jobs-dir is set.
	Jobs *jobs.Service
}

// Metrics is a point-in-time snapshot of the serving counters.
type Metrics struct {
	Requests     int64 `json:"requests"`
	InFlight     int64 `json:"in_flight"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"` // upstream computations started
	Coalesced    int64 `json:"coalesced"`    // requests that joined an in-flight computation
	Rejected     int64 `json:"rejected"`     // turned away by the concurrency limiter
	Timeouts     int64 `json:"timeouts"`
	SweepStreams int64 `json:"sweep_streams"` // POST /v1/sweep runs admitted
	SweepPoints  int64 `json:"sweep_points"`  // grid points streamed out
	PlanRuns     int64 `json:"plan_runs"`     // POST /v1/plan searches computed (cache misses)
	PlanPlans    int64 `json:"plan_plans"`    // candidate plans evaluated by those searches
	// CostModelRequests counts requests served per step-time backend
	// (canonical name), across every backend-routed endpoint.
	CostModelRequests map[string]int64 `json:"costmodel_requests"`
	CacheEntries      int              `json:"cache_entries"`
	CacheLimit        int              `json:"cache_limit"`
	CacheEvictions    int64            `json:"cache_evictions"`
	MaxInFlight       int              `json:"max_in_flight"`
}

// Server is the HTTP analysis service. Create with New; safe for
// concurrent use.
type Server struct {
	eng *cat.Engine
	// cache maps canonical request keys to marshaled responses.
	cache   *lru.Cache[[]byte]
	flights *flightGroup
	sem     chan struct{}
	// computeSem bounds concurrently *running* upstream computations.
	// The request limiter alone cannot: a timed-out request frees its
	// slot while its detached single-flight computation keeps running,
	// so under sustained distinct-key slow traffic running computations
	// would otherwise grow without bound. Queued computations are cheap
	// (a parked goroutine); running ones are the expensive resource.
	computeSem     chan struct{}
	timeout        time.Duration
	maxSweepPoints int
	mux            *http.ServeMux
	logger         *slog.Logger
	start          time.Time
	jobsSvc        *jobs.Service

	// reg holds this server's HTTP-layer series: the per-endpoint
	// request-duration histograms and response-byte counters, plus sampled
	// occupancy gauges. Engine stage histograms live in obs.Default; the
	// /metrics exposition writes both.
	reg        *obs.Registry
	routeHist  map[string]*obs.Histogram
	routeBytes map[string]*obs.Counter
	otherHist  *obs.Histogram
	otherBytes *obs.Counter

	requests, inFlight, hits, misses atomic.Int64
	coalesced, rejected, timeouts    atomic.Int64
	sweepStreams, sweepPoints        atomic.Int64
	planRuns, planPlans              atomic.Int64
	cmGraph, cmPerop                 atomic.Int64

	// computeHook, when set, runs inside each upstream computation (after
	// the miss is counted, before the Engine call). Test seam for
	// verifying coalescing deterministically.
	computeHook func(key string)
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = cat.NewEngine()
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 100000
	}
	if cfg.Jobs == nil {
		// An in-memory job service cannot fail to construct: the store
		// needs no I/O and the engine is already in hand.
		cfg.Jobs, _ = jobs.New(jobs.Config{Source: cfg.Engine, Logger: cfg.Logger})
	}
	s := &Server{
		eng:            cfg.Engine,
		cache:          lru.New[[]byte](cfg.CacheEntries),
		flights:        newFlightGroup(),
		sem:            make(chan struct{}, cfg.MaxInFlight),
		computeSem:     make(chan struct{}, cfg.MaxInFlight),
		timeout:        cfg.Timeout,
		maxSweepPoints: cfg.MaxSweepPoints,
		jobsSvc:        cfg.Jobs,
		mux:            http.NewServeMux(),
		logger:         cfg.Logger,
		start:          time.Now(),
		reg:            obs.NewRegistry(),
		routeHist:      make(map[string]*obs.Histogram),
		routeBytes:     make(map[string]*obs.Counter),
	}
	// handle registers a route and its per-endpoint series: one request-
	// duration histogram and one response-byte counter, labeled by the
	// route pattern. Requests that match no route record under "other".
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, h)
		lbl := obs.Label{Name: "endpoint", Value: pattern}
		s.routeHist[pattern] = s.reg.Histogram(reqDurationMetric,
			"HTTP request latency in seconds, by endpoint.", obs.DefBuckets, lbl)
		s.routeBytes[pattern] = s.reg.Counter(respBytesMetric,
			"HTTP response body bytes written, by endpoint.", lbl)
	}
	other := obs.Label{Name: "endpoint", Value: "other"}
	s.otherHist = s.reg.Histogram(reqDurationMetric,
		"HTTP request latency in seconds, by endpoint.", obs.DefBuckets, other)
	s.otherBytes = s.reg.Counter(respBytesMetric,
		"HTTP response body bytes written, by endpoint.", other)
	s.reg.GaugeFunc("catamount_http_in_flight",
		"Requests currently being served.", func() float64 { return float64(s.inFlight.Load()) })
	s.reg.GaugeFunc("catamount_cache_entries",
		"Response cache occupancy.", func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc("catamount_cache_limit",
		"Response cache capacity.", func() float64 { return float64(s.cache.Capacity()) })
	s.reg.GaugeFunc("catamount_max_in_flight",
		"Concurrency limiter capacity.", func() float64 { return float64(cap(s.sem)) })

	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /metrics.json", s.handleMetricsJSON)
	handle("GET /v1/domains", s.handleDomains)
	handle("GET /v1/accelerators", s.handleAccelerators)
	handle("GET /v1/costmodels", s.handleCostModels)
	handle("GET /v1/analyze", s.handleAnalyze)
	handle("POST /v1/analyze", s.handleAnalyze)
	handle("GET /v1/profile", s.handleProfile)
	handle("GET /v1/asymptotics", s.handleAsymptotics)
	handle("GET /v1/frontier", s.handleFrontier)
	handle("POST /v1/frontier", s.handleFrontier)
	handle("GET /v1/subbatch", s.handleSubbatch)
	handle("POST /v1/subbatch", s.handleSubbatch)
	handle("GET /v1/casestudy", s.handleCaseStudy)
	handle("POST /v1/casestudy", s.handleCaseStudy)
	handle("GET /v1/figures/{fig}", s.handleFigure)
	handle("POST /v1/figures/{fig}", s.handleFigure)
	handle("POST /v1/checkpoint/analyze", s.handleCheckpoint)
	handle("POST /v1/sweep", s.handleSweep)
	handle("POST /v1/plan", s.handlePlan)
	handle("POST /v1/jobs", s.handleJobSubmit)
	handle("GET /v1/jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("GET /v1/jobs/{id}/results", s.handleJobResults)
	handle("DELETE /v1/jobs/{id}", s.handleJobDelete)
	handle("GET /v1/traces", s.handleTraces)
	handle("GET /v1/traces/{id}", s.handleTraceGet)
	handle("POST /v1/admin/warmup", s.handleWarmup)
	handle("GET /v1/openapi.json", s.handleOpenAPI)
	return s
}

// Close drains the job service: running jobs checkpoint and park back to
// queued (file-backed stores resume them on the next boot). The HTTP layer
// itself holds no other background state.
func (s *Server) Close() { s.jobsSvc.Close() }

// counterSet is the comparable image of every serving counter, so one
// stabilized read can feed both the JSON and Prometheus exposition paths.
type counterSet struct {
	requests, inFlight, hits, misses int64
	coalesced, rejected, timeouts    int64
	sweepStreams, sweepPoints        int64
	planRuns, planPlans              int64
	cmGraph, cmPerop                 int64
	cacheEntries                     int
	cacheEvictions                   int64
}

// readCounters loads every counter once, in a fixed order.
func (s *Server) readCounters() counterSet {
	return counterSet{
		requests:       s.requests.Load(),
		inFlight:       s.inFlight.Load(),
		hits:           s.hits.Load(),
		misses:         s.misses.Load(),
		coalesced:      s.coalesced.Load(),
		rejected:       s.rejected.Load(),
		timeouts:       s.timeouts.Load(),
		sweepStreams:   s.sweepStreams.Load(),
		sweepPoints:    s.sweepPoints.Load(),
		planRuns:       s.planRuns.Load(),
		planPlans:      s.planPlans.Load(),
		cmGraph:        s.cmGraph.Load(),
		cmPerop:        s.cmPerop.Load(),
		cacheEntries:   s.cache.Len(),
		cacheEvictions: s.cache.Stats().Evictions,
	}
}

// snapshot is the one consistent capture path every metrics consumer
// shares. The counters are independent atomics (the hot paths must stay
// lock-free), so a single pass can tear — e.g. a cache hit counted in
// cache_hits but not yet in requests. Re-reading until two consecutive
// passes agree yields a pass no increment interleaved with; under
// relentless churn it settles for the freshest pass after a few tries
// rather than spinning (in_flight may genuinely never sit still).
func (s *Server) snapshot() counterSet {
	cur := s.readCounters()
	for tries := 0; tries < 4; tries++ {
		again := s.readCounters()
		if again == cur {
			return cur
		}
		cur = again
	}
	return cur
}

// Metrics snapshots the serving counters through the consistent capture
// path.
func (s *Server) Metrics() Metrics {
	c := s.snapshot()
	return Metrics{
		Requests:     c.requests,
		InFlight:     c.inFlight,
		CacheHits:    c.hits,
		CacheMisses:  c.misses,
		Coalesced:    c.coalesced,
		Rejected:     c.rejected,
		Timeouts:     c.timeouts,
		SweepStreams: c.sweepStreams,
		SweepPoints:  c.sweepPoints,
		PlanRuns:     c.planRuns,
		PlanPlans:    c.planPlans,
		CostModelRequests: map[string]int64{
			costmodel.GraphName: c.cmGraph,
			costmodel.PerOpName: c.cmPerop,
		},
		CacheEntries:   c.cacheEntries,
		CacheLimit:     s.cache.Capacity(),
		CacheEvictions: c.cacheEvictions,
		MaxInFlight:    cap(s.sem),
	}
}

// countCostModel meters a backend-routed request for /metrics.
func (s *Server) countCostModel(cm costmodel.Model) {
	if cm.Name() == costmodel.PerOpName {
		s.cmPerop.Add(1)
		return
	}
	s.cmGraph.Add(1)
}

// resolveCostModel reads the "costmodel" query parameter shared by the
// backend-routed endpoints ("" means the default graph-level Roofline) and
// meters the choice.
func (s *Server) resolveCostModel(r *http.Request) (costmodel.Model, error) {
	cm, err := costmodel.Parse(r.URL.Query().Get("costmodel"))
	if err != nil {
		return nil, err
	}
	s.countCostModel(cm)
	return cm, nil
}

// ServeHTTP applies the request deadline and concurrency limit, then
// dispatches. Analysis endpoints (/v1/...) load-shed with 503 once
// MaxInFlight requests are admitted; /healthz and /metrics always answer,
// so probes keep working while the service is saturated.
//
// Every request is tagged with a request ID (the client's X-Request-Id, or
// a freshly minted one) that rides the context into engine stage spans and
// the structured request log, and is echoed back as a response header.
// Duration and response bytes record into the per-endpoint series whatever
// path the request takes — shed, timed out, or served.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	begin := time.Now()
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	ctx, cancel := context.WithTimeout(obs.WithRequestID(r.Context(), rid), s.timeout)
	defer cancel()
	r = r.WithContext(ctx)

	muxHandler, pattern := s.mux.Handler(r)
	cw := countingWriter{ResponseWriter: w}

	// Root a trace per analysis request: the request ID is the trace ID
	// (a client-supplied X-Request-Id names its trace directly), the route
	// pattern is the retention bucket, and engine stages nest under the
	// "request" root via the context. Trace reads themselves are exempt so
	// inspecting the flight recorder never evicts the traces under study.
	if pattern != "" && strings.HasPrefix(r.URL.Path, "/v1/") &&
		pattern != "GET /v1/traces" && pattern != "GET /v1/traces/{id}" {
		tr := obs.NewTrace(rid, pattern)
		tctx := tr.Context(ctx)
		root := obs.StartSpan(tctx, "request", nil)
		r = r.WithContext(root.Attach(tctx))
		defer func() {
			root.End()
			tr.Finish(cw.statusOr200() >= 400)
			obs.Flight.Add(tr)
		}()
	}

	defer func() {
		elapsed := time.Since(begin)
		hist, bytesCtr := s.otherHist, s.otherBytes
		if h, ok := s.routeHist[pattern]; ok {
			hist, bytesCtr = h, s.routeBytes[pattern]
		}
		hist.Observe(elapsed.Seconds())
		bytesCtr.Add(cw.bytes)
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", pattern),
				slog.Int("status", cw.statusOr200()),
				slog.Int64("bytes", cw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("request_id", rid))
		}
	}()

	if pattern == "" {
		// No route matched: the mux's fallback would write a plain-text
		// 404 or 405. Replay its verdict through a body-discarding recorder
		// to learn the status (and the Allow header a 405 carries), then
		// emit the v1 error envelope with it instead.
		rec := &verdictRecorder{hdr: make(http.Header)}
		muxHandler.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusNotFound
		}
		msg := "no such endpoint"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
			if allow := rec.hdr.Get("Allow"); allow != "" {
				cw.Header().Set("Allow", allow)
			}
		}
		apiError(&cw, r, status, msg)
		return
	}

	if strings.HasPrefix(r.URL.Path, "/v1/") {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rejected.Add(1)
			apiError(&cw, r, http.StatusServiceUnavailable, "server at capacity")
			return
		}
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.mux.ServeHTTP(&cw, r)
}

// countingWriter meters status and bytes while passing flushes and write
// deadlines through: Flush keeps sweep streaming working and Unwrap keeps
// http.NewResponseController able to reach the real connection.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.bytes += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

func (c *countingWriter) statusOr200() int {
	if c.status == 0 {
		return http.StatusOK
	}
	return c.status
}

// verdictRecorder captures a handler's status and headers while discarding
// the body — how ServeHTTP learns the mux fallback's 404-vs-405 verdict
// before writing the enveloped version itself.
type verdictRecorder struct {
	hdr    http.Header
	status int
}

func (v *verdictRecorder) Header() http.Header { return v.hdr }

func (v *verdictRecorder) WriteHeader(code int) {
	if v.status == 0 {
		v.status = code
	}
}

func (v *verdictRecorder) Write(b []byte) (int, error) {
	if v.status == 0 {
		v.status = http.StatusOK
	}
	return len(b), nil
}

// ---------------------------------------------------------------------------
// Cached single-flight dispatch

// respondCached serves key from the LRU, coalescing concurrent misses into
// one upstream computation whose marshaled response backfills the cache.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, key string, compute func() (any, error)) {
	if b, ok := s.cache.Get(key); ok {
		s.hits.Add(1)
		writeJSONBytes(w, b)
		return
	}
	call, leader := s.flights.do(key, func() ([]byte, error) {
		s.computeSem <- struct{}{}
		defer func() { <-s.computeSem }()
		s.misses.Add(1)
		if hook := s.computeHook; hook != nil {
			hook(key)
		}
		v, err := compute()
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		s.cache.Add(key, b)
		return b, nil
	})
	if !leader {
		s.coalesced.Add(1)
	}
	select {
	case <-call.done:
		if call.err != nil {
			// Engine computations are deterministic: after request
			// validation, a compute error means this request cannot be
			// served as specified (e.g. an unreachable parameter target),
			// not that the server faulted — report it as the client's.
			// A recovered panic is the exception: that is ours.
			status := http.StatusUnprocessableEntity
			if errors.Is(call.err, errComputePanic) {
				status = http.StatusInternalServerError
			}
			apiError(w, r, status, call.err.Error())
			return
		}
		writeJSONBytes(w, call.val)
	case <-r.Context().Done():
		s.timeouts.Add(1)
		apiError(w, r, http.StatusGatewayTimeout, "request deadline exceeded")
	}
}

// ---------------------------------------------------------------------------
// Handlers

// healthResponse is the /healthz body: liveness plus enough build and
// occupancy detail to tell *which* binary is alive and how warm it is.
type healthResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	GoVersion     string         `json:"go_version"`
	Revision      string         `json:"vcs_revision,omitempty"`
	Modified      bool           `json:"vcs_modified,omitempty"`
	EngineCache   cat.CacheStats `json:"engine_cache"`
	ResponseCache int            `json:"response_cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rev, modified := buildRevision()
	writeJSON(w, r, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      rev,
		Modified:      modified,
		EngineCache:   s.eng.CacheStats(),
		ResponseCache: s.cache.Len(),
	})
}

// handleMetrics negotiates the exposition format: Prometheus text by
// default, the legacy JSON snapshot when the client asks for JSON.
// /metrics.json always serves JSON, so dashboards that predate the text
// exposition keep a stable URL.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	s.writePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, s.Metrics())
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	out := make([]string, 0, len(cat.Domains()))
	for _, d := range cat.Domains() {
		out = append(out, string(d))
	}
	writeJSON(w, r, map[string]any{"domains": out})
}

func (s *Server) handleAccelerators(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, map[string]any{"accelerators": hw.Catalog(), "aliases": hw.Aliases()})
}

// handleCostModels lists the step-time backends with their aliases, so
// clients can discover what the "costmodel" request field accepts.
func (s *Server) handleCostModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, map[string]any{"costmodels": costmodel.Infos()})
}

// analyzeResponse is one characterization plus its Roofline estimate under
// the request's cost-model backend.
type analyzeResponse struct {
	Requirements cat.Requirements `json:"requirements"`
	Accelerator  string           `json:"accelerator"`
	CostModel    string           `json:"costmodel"`
	StepSeconds  float64          `json:"step_seconds"`
	Utilization  float64          `json:"utilization"`
	ComputeBound bool             `json:"compute_bound"`
}

// parseModelPoint reads the (domain, params, batch) triple shared by the
// analyze and profile endpoints, resolving an omitted batch to the
// domain's default. On failure it writes the error response and reports
// ok=false.
func (s *Server) parseModelPoint(w http.ResponseWriter, r *http.Request) (d cat.Domain, params, batch float64, ok bool) {
	q := r.URL.Query()
	d, err := parseDomain(q)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return d, 0, 0, false
	}
	params, err = parsePositiveFloat(q, "params", 0)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return d, 0, 0, false
	}
	if params == 0 {
		apiError(w, r, http.StatusBadRequest, "missing required parameter \"params\"")
		return d, 0, 0, false
	}
	batch, err = parsePositiveFloat(q, "batch", 0)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return d, 0, 0, false
	}
	if batch == 0 {
		m, err := s.eng.Model(d)
		if err != nil {
			apiError(w, r, http.StatusInternalServerError, err.Error())
			return d, 0, 0, false
		}
		batch = m.DefaultBatch
	}
	return d, params, batch, true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	d, params, batch, ok := s.parseModelPoint(w, r)
	if !ok {
		return
	}
	acc, err := s.resolveAccelerator(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cm, err := s.resolveCostModel(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// The backend enters the key by canonical name, so alias spellings
	// ("perop", "per-op-roofline") share one cache entry.
	key := fmt.Sprintf("analyze|%s|%g|%g|%s|%s", d, params, batch, cm.Name(), accKey(acc))
	s.respondCached(w, r, key, func() (any, error) {
		req, est, err := s.eng.AnalyzeOn(r.Context(), d, params, batch, acc, cm)
		if err != nil {
			return nil, err
		}
		return analyzeResponse{
			Requirements: req,
			Accelerator:  acc.Name,
			CostModel:    est.CostModel,
			StepSeconds:  est.StepSeconds,
			Utilization:  est.Utilization,
			ComputeBound: est.ComputeBound,
		}, nil
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	d, params, batch, ok := s.parseModelPoint(w, r)
	if !ok {
		return
	}
	key := fmt.Sprintf("profile|%s|%g|%g", d, params, batch)
	s.respondCached(w, r, key, func() (any, error) {
		return s.eng.Profile(d, params, batch)
	})
}

func (s *Server) handleAsymptotics(w http.ResponseWriter, r *http.Request) {
	s.respondCached(w, r, "asymptotics", func() (any, error) {
		return s.eng.AsymptoticTable()
	})
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	acc, err := s.resolveAccelerator(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cm, err := s.resolveCostModel(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	key := "frontier|" + cm.Name() + "|" + accKey(acc)
	s.respondCached(w, r, key, func() (any, error) {
		rows, err := s.eng.FrontierTableWith(acc, cm)
		if err != nil {
			return nil, err
		}
		return map[string]any{"accelerator": acc.Name, "costmodel": cm.Name(), "rows": rows}, nil
	})
}

// subbatchResponse is the Figure 11-style sweep for one domain/device pair
// with the §5.2.1 policy choices marked.
type subbatchResponse struct {
	cat.SubbatchSelection
	Accelerator string `json:"accelerator"`
}

func (s *Server) handleSubbatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	d, err := parseDomain(q)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	acc, err := s.resolveAccelerator(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	tol, err := parsePositiveFloat(q, "tol", 0.05)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	params, err := parsePositiveFloat(q, "params", 0)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	policies, err := parsePolicies(q.Get("policy"))
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cm, err := s.resolveCostModel(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// Key on the canonical parsed policies and backend name, so aliases
	// ("min-time", "min-time-per-sample"; "perop", "per-op-roofline") and
	// the "" / "all" pair share one entry. params == 0 resolves inside
	// SubbatchSelectWith to the domain's accuracy-frontier model size (Table 1).
	polNames := make([]string, len(policies))
	for i, pol := range policies {
		polNames[i] = pol.String()
	}
	key := fmt.Sprintf("subbatch|%s|%g|%g|%s|%s|%s", d, params, tol,
		strings.Join(polNames, "+"), cm.Name(), accKey(acc))
	s.respondCached(w, r, key, func() (any, error) {
		sel, err := s.eng.SubbatchSelectWith(d, params, acc, cm, policies, tol)
		if err != nil {
			return nil, err
		}
		return subbatchResponse{SubbatchSelection: *sel, Accelerator: acc.Name}, nil
	})
}

// caseStudyResponse is the Table 5 plan without the (non-serializable)
// model graph.
type caseStudyResponse struct {
	Accelerator     string                    `json:"accelerator"`
	CostModel       string                    `json:"costmodel"`
	Model           string                    `json:"model"`
	Size            float64                   `json:"size"`
	Params          float64                   `json:"params"`
	StepFLOPs       float64                   `json:"step_flops"`
	AlgBytes        float64                   `json:"alg_bytes"`
	CacheAwareBytes float64                   `json:"cache_aware_bytes"`
	StepSeconds     float64                   `json:"step_seconds"`
	Stages          []parallel.CaseStudyStage `json:"stages"`
}

func (s *Server) handleCaseStudy(w http.ResponseWriter, r *http.Request) {
	acc, err := s.resolveAccelerator(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cm, err := s.resolveCostModel(r)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	key := "casestudy|" + cm.Name() + "|" + accKey(acc)
	s.respondCached(w, r, key, func() (any, error) {
		cs, err := s.eng.WordLMCaseStudyOnWith(acc, cm)
		if err != nil {
			return nil, err
		}
		return caseStudyResponse{
			Accelerator:     acc.Name,
			CostModel:       cs.CostModel,
			Model:           cs.Model.Name,
			Size:            cs.Size,
			Params:          cs.Params,
			StepFLOPs:       cs.StepFLOPs,
			AlgBytes:        cs.AlgBytes,
			CacheAwareBytes: cs.CacheAwareBytes,
			StepSeconds:     cs.StepSeconds,
			Stages:          cs.Stages,
		}, nil
	})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	fig := r.PathValue("fig")
	q := r.URL.Query()
	switch fig {
	case "6", "curve":
		d, err := parseDomain(q)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		s.respondCached(w, r, "figure6|"+string(d), func() (any, error) {
			return cat.Figure6(d)
		})
	case "7", "8", "9", "sweeps":
		s.respondCached(w, r, "figuresweeps", func() (any, error) {
			return s.eng.FigureSweeps()
		})
	case "10", "footprint":
		s.respondCached(w, r, "figure10", func() (any, error) {
			return s.eng.Figure10()
		})
	case "11", "subbatch":
		acc, err := s.resolveAccelerator(r)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		cm, err := s.resolveCostModel(r)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		s.respondCached(w, r, "figure11|"+cm.Name()+"|"+accKey(acc), func() (any, error) {
			return s.eng.Figure11With(acc, cm)
		})
	case "12", "dataparallel":
		acc, err := s.resolveAccelerator(r)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		cm, err := s.resolveCostModel(r)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		s.respondCached(w, r, "figure12|"+cm.Name()+"|"+accKey(acc), func() (any, error) {
			return s.eng.Figure12OnWith(acc, cm)
		})
	default:
		apiError(w, r, http.StatusBadRequest,
			fmt.Sprintf("unknown figure %q (one of: 6..12, curve, sweeps, footprint, subbatch, dataparallel)", fig))
	}
}

// checkpointResponse characterizes an uploaded compute-graph checkpoint.
type checkpointResponse struct {
	Name            string             `json:"name"`
	Policy          string             `json:"policy"`
	Bindings        map[string]float64 `json:"bindings"`
	Params          float64            `json:"params"`
	FLOPs           float64            `json:"flops"`
	Bytes           float64            `json:"bytes"`
	Intensity       float64            `json:"intensity"`
	FootprintBytes  float64            `json:"footprint_bytes"`
	PersistentBytes float64            `json:"persistent_bytes"`
}

// handleCheckpoint analyzes a POSTed graphio JSON checkpoint. Every free
// symbolic dimension of the graph must be bound through a query parameter
// of the same name (e.g. ?b=128&h=2048); "policy" selects the footprint
// traversal (fifo | mem-greedy). A graph symbol that collides with a
// reserved parameter name binds through the "bind." prefix instead
// (?bind.policy=8). Uploads are not cached: the key space is the body
// itself.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	policy, err := parseSchedulePolicy(q.Get("policy"))
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	g, err := graphio.Load(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// Everything past the body read (compiling an arbitrary uploaded
	// graph, stats, footprint traversal) runs under the compute semaphore
	// and the request deadline like every other endpoint. The token is
	// acquired *before* the computation goroutine is spawned: a request
	// whose deadline fires while still queued exits without leaving a
	// parked goroutine (and its decoded graph) behind, so client-
	// controlled slow uploads cannot accumulate unbounded pending work.
	select {
	case s.computeSem <- struct{}{}:
	case <-r.Context().Done():
		s.timeouts.Add(1)
		apiError(w, r, http.StatusGatewayTimeout, "request deadline exceeded")
		return
	}
	type outcome struct {
		resp   checkpointResponse
		status int
		errMsg string
	}
	done := make(chan outcome, 1)
	go func() {
		// Outside net/http's recover: compiling a hostile upload may panic
		// (e.g. an op given the wrong arity passes graph validation but
		// trips cost derivation). One bad checkpoint must not kill the
		// process — surface it as a malformed-request error instead.
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{status: http.StatusBadRequest,
					errMsg: fmt.Sprintf("invalid checkpoint graph: %v", r)}
			}
		}()
		defer func() { <-s.computeSem }()
		c := graph.Compile(g)
		slots := c.NewSlots()
		bindings := make(map[string]float64, len(c.Syms.Names()))
		var missing []string
		for _, name := range c.Syms.Names() {
			param := name
			if param == "policy" {
				// The schedule-policy selector owns the bare name; a graph
				// symbol called "policy" binds through the escape prefix.
				param = "bind.policy"
			}
			raw := q.Get(param)
			if raw == "" {
				missing = append(missing, param)
				continue
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				done <- outcome{status: http.StatusBadRequest,
					errMsg: fmt.Sprintf("binding %q: invalid value %q", name, raw)}
				return
			}
			slot, _ := c.Syms.Slot(name)
			slots[slot] = v
			bindings[name] = v
		}
		if len(missing) > 0 {
			done <- outcome{status: http.StatusBadRequest,
				errMsg: fmt.Sprintf("graph symbols need bindings via query parameters: %s", strings.Join(missing, ", "))}
			return
		}
		stats := c.EvalStats(slots)
		fp, err := c.Footprint(slots, policy)
		if err == nil {
			// Finite bindings can still overflow a total, which JSON
			// cannot encode; name the first such field, in JSON order.
			err = cmp.Or(core.NonFiniteField("params", stats.Params),
				core.NonFiniteField("flops", stats.FLOPs), core.NonFiniteField("bytes", stats.Bytes),
				core.NonFiniteField("intensity", stats.Intensity),
				core.NonFiniteField("footprint_bytes", fp.PeakBytes),
				core.NonFiniteField("persistent_bytes", fp.PersistentBytes))
		}
		if err != nil {
			done <- outcome{status: http.StatusUnprocessableEntity, errMsg: err.Error()}
			return
		}
		done <- outcome{resp: checkpointResponse{
			Name:            g.Name,
			Policy:          policy.String(),
			Bindings:        bindings,
			Params:          stats.Params,
			FLOPs:           stats.FLOPs,
			Bytes:           stats.Bytes,
			Intensity:       stats.Intensity,
			FootprintBytes:  fp.PeakBytes,
			PersistentBytes: fp.PersistentBytes,
		}}
	}()
	select {
	case res := <-done:
		if res.status != 0 {
			apiError(w, r, res.status, res.errMsg)
			return
		}
		writeJSON(w, r, res.resp)
	case <-r.Context().Done():
		s.timeouts.Add(1)
		apiError(w, r, http.StatusGatewayTimeout, "request deadline exceeded")
	}
}

// ---------------------------------------------------------------------------
// Parsing and serialization helpers

// resolveAccelerator picks the device for a request: a POSTed JSON body is
// a user-supplied custom accelerator (catalog interchange schema), the
// "accel" query parameter names a catalog entry, and absence means the
// paper's Table 4 target. Every path returns a validated device.
func (s *Server) resolveAccelerator(r *http.Request) (hw.Accelerator, error) {
	if r.Method == http.MethodPost && r.Body != nil && r.ContentLength != 0 {
		return hw.ReadAccelerator(http.MaxBytesReader(nil, r.Body, 1<<20))
	}
	name := r.URL.Query().Get("accel")
	if name == "" {
		return hw.TargetAccelerator(), nil
	}
	return hw.Lookup(name)
}

// accKey fingerprints a device for cache keys: the name alone is not
// enough once custom uploads can shadow catalog names. The name is
// user-controlled on uploads, so %q confines it to an escaped, quoted
// segment — a crafted name cannot forge other key components and poison
// the shared response cache.
func accKey(a hw.Accelerator) string {
	return fmt.Sprintf("%q/%g/%g/%g/%g/%g/%g/%g/%g/%g", a.Name, a.PeakFLOPS, a.CacheBytes,
		a.MemBandwidth, a.MemCapacity, a.InterconnectBW, a.AchievableCompute, a.AchievableMemBW,
		a.CostPerHourUSD, a.TDPWatts)
}

func parseDomain(q url.Values) (cat.Domain, error) {
	name := q.Get("domain")
	if name == "" {
		return "", errors.New("missing required parameter \"domain\"")
	}
	return models.ParseDomain(name)
}

// parsePositiveFloat reads a strictly positive finite float parameter,
// returning def when absent.
func parsePositiveFloat(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: invalid number %q", name, raw)
	}
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q: must be a positive finite number, got %q", name, raw)
	}
	return v, nil
}

// parsePolicies maps the "policy" parameter to subbatch policies; empty or
// "all" selects all three §5.2.1 candidates.
func parsePolicies(raw string) ([]hw.SubbatchPolicy, error) {
	switch raw {
	case "", "all":
		return []hw.SubbatchPolicy{hw.MinTimePerSample, hw.RidgePointMatch, hw.IntensitySaturation}, nil
	case "min-time-per-sample", "min-time":
		return []hw.SubbatchPolicy{hw.MinTimePerSample}, nil
	case "ridge-point-match", "ridge":
		return []hw.SubbatchPolicy{hw.RidgePointMatch}, nil
	case "intensity-saturation", "saturation":
		return []hw.SubbatchPolicy{hw.IntensitySaturation}, nil
	}
	return nil, fmt.Errorf("unknown subbatch policy %q (min-time-per-sample, ridge-point-match, intensity-saturation, all)", raw)
}

func parseSchedulePolicy(raw string) (graph.SchedulePolicy, error) {
	switch raw {
	case "", "mem-greedy":
		return graph.PolicyMemGreedy, nil
	case "fifo":
		return graph.PolicyFIFO, nil
	}
	return 0, fmt.Errorf("unknown schedule policy %q (fifo, mem-greedy)", raw)
}

// writeJSON answers r with v as JSON, or, if v cannot be encoded, with a
// 500 envelope that carries r's request ID.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		apiError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSONBytes(w, b)
}

func writeJSONBytes(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	if len(b) == 0 || b[len(b)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// apiError emits the one v1 error envelope every non-2xx response uses:
//
//	{"error": {"code": "...", "message": "...", "request_id": "..."}}
//
// The code derives from the status (api.CodeForStatus) and the request ID
// from r's context (ServeHTTP tags it before dispatch), so a client error
// body alone is enough to find the matching server trace.
func apiError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorResponse{Error: api.Error{
		Code:      api.CodeForStatus(status),
		Message:   msg,
		RequestID: obs.RequestID(r.Context()),
	}})
}
