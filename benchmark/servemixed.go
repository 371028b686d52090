package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	cat "catamount"
	"catamount/internal/obs"
	"catamount/internal/server"
)

// serveMixed drives an in-process server.New — the handler catamountd
// serves, with its default config — from one closed-loop client over one
// keep-alive loopback connection. Every block of 100 requests reads 80
// keys of a warmed hot set and analyzes 20 fresh keys, four per domain
// (one in each quarter of the log parameter range), in a seeded order.
type serveMixed struct {
	seed uint64
	hot  []request
	// used holds every request path drawn so far, so a miss is never a
	// key the cache has seen.
	used map[string]bool

	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	warmed []digest // the body each hot key returned during warm-up
}

const (
	serveBlock     = 100
	serveHotPerBlk = 80
)

// request is one HTTP call of the mix.
type request struct {
	method, path, body string
	hot                int        // index into the hot set; -1 for a miss
	domain             cat.Domain // a miss's requested domain
}

// digest identifies a response body without keeping it alive.
type digest struct {
	n   int
	crc uint32
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func digestOf(b []byte) digest { return digest{n: len(b), crc: crc32.Checksum(b, crcTable)} }

// paramsArg renders a parameter count for a query string with every
// digit, so distinct draws are distinct cache keys.
func paramsArg(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

func newServeMixed(seed uint64) *serveMixed {
	rng := newRand(seed, streamFixed)
	w := &serveMixed{seed: seed, used: map[string]bool{}}
	add := func(method, path, body string) {
		w.hot = append(w.hot, request{method: method, path: path, body: body, hot: len(w.hot)})
		w.used[path+body] = true
	}
	var accs []string
	for _, a := range cat.Accelerators() {
		accs = append(accs, a.Name)
	}
	for _, d := range cat.Domains() {
		for range 8 {
			p := paramsArg(logUniform(rng, 1e7, 1e10))
			add("GET", "/v1/analyze?domain="+string(d)+"&params="+p, "")
			add("GET", "/v1/analyze?domain="+string(d)+"&params="+p+"&accel=a100-class", "")
		}
		for _, a := range accs {
			for _, cm := range []string{"graph", "perop"} {
				add("GET", "/v1/subbatch?domain="+string(d)+"&accel="+a+"&costmodel="+cm, "")
			}
		}
		for _, cm := range []string{"graph", "perop"} {
			add("POST", "/v1/plan", `{"domain":"`+string(d)+`","costmodel":"`+cm+`"}`)
		}
	}
	for _, a := range accs {
		for _, cm := range []string{"graph", "perop"} {
			add("GET", "/v1/frontier?accel="+a+"&costmodel="+cm, "")
		}
		add("GET", "/v1/figures/11?accel="+a, "")
	}
	add("GET", "/v1/figures/12", "")
	add("GET", "/v1/asymptotics", "")
	return w
}

// start serves a fresh server.New over eng on a loopback port and warms
// the hot set, recording each key's body.
func (w *serveMixed) start(ctx context.Context, eng *cat.Engine) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(server.Config{Engine: eng})
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()

	c := newClient()
	defer c.hc.CloseIdleConnections()
	w.warmed = make([]digest, len(w.hot))
	for i, r := range w.hot {
		status, body, err := c.do(ctx, w.base, r, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", r.method, r.path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s %s: status %d", r.method, r.path, status)
		}
		w.warmed[i] = digestOf(body)
	}
	return nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (w *serveMixed) stop() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a timeout still closes the listener; Serve returns either way
	<-w.served
	w.srv.Close()
	w.hs, w.srv = nil, nil
}

// client is one keep-alive connection with a reused body buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends r and reads the whole body into the client's buffer; the
// returned slice is valid until the next call.
func (c *client) do(ctx context.Context, base string, r request, ct *httptrace.ClientTrace) (int, []byte, error) {
	if ct != nil {
		ctx = httptrace.WithClientTrace(ctx, ct)
	}
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sequence draws a pass's requests.
func (w *serveMixed) sequence(pc passConfig) []request {
	rng := newRand(w.seed, pc.stream)
	var accs []string
	for _, a := range cat.Accelerators() {
		accs = append(accs, a.Name)
	}
	misses := (serveBlock - serveHotPerBlk) / len(cat.Domains())
	var out []request
	for range pc.blocks {
		var block []request
		for range serveHotPerBlk {
			block = append(block, w.hot[rng.IntN(len(w.hot))])
		}
		for _, d := range cat.Domains() {
			for k := range misses {
				var path string
				for path == "" || w.used[path] {
					p := paramsArg(logStratum(rng, 1e7, 1e10, k, misses))
					path = "/v1/analyze?domain=" + string(d) + "&params=" + p + "&accel=" + accs[rng.IntN(len(accs))]
				}
				w.used[path] = true
				block = append(block, request{method: "GET", path: path, hot: -1, domain: d})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// clientRun is what the client of a pass saw.
type clientRun struct {
	hotLat, missLat, all []float64
	blockSecs            []float64
	failed               int
	transport            float64 // client-side write and read time (traced passes)
	missNodes            float64 // graph nodes of the domains missed
}

func (w *serveMixed) pass(ctx context.Context, eng *cat.Engine, pc passConfig) (*passResult, error) {
	seq := w.sequence(pc)
	nodes, err := nodeCounts(eng)
	if err != nil {
		return nil, err
	}
	var before serveSnap
	if pc.traced {
		if before, err = w.snap(ctx); err != nil {
			return nil, err
		}
	}
	r := w.client(ctx, seq, pc.traced, nodes)
	res := &passResult{
		latencies: r.all,
		blockSecs: r.blockSecs,
		blockWork: serveBlock,
		attempted: len(r.all),
		failed:    r.failed,
	}
	if !pc.traced {
		return res, nil
	}
	after, err := w.snap(ctx)
	if err != nil {
		return nil, err
	}
	var clientSecs float64
	for _, l := range res.latencies {
		clientSecs += l
	}
	m := metrics{}
	d := after.sub(before)
	m.set("server.request_s", "s", d.routeSecs)
	m.set("http.transport_s", "s", r.transport)
	m.set("core.characterize_s", "s", d.characterize-d.footprint)
	m.set("graph.footprint_s", "s", d.footprint)
	m.set("graph.footprint_ns_per_node_row", "ns", d.footprint*1e9/r.missNodes)
	m.set("bench.unattributed_s", "s", clientSecs-r.transport-d.routeSecs)
	m.set("server.hit_latency_p50_ms", "ms", quantile(r.hotLat, 0.5)*1e3)
	m.set("server.hit_latency_p99_ms", "ms", quantile(r.hotLat, 0.99)*1e3)
	m.set("server.miss_latency_p50_ms", "ms", quantile(r.missLat, 0.5)*1e3)
	m.set("server.coalesced", "count", float64(d.m.Coalesced))
	m.set("server.rejected", "count", float64(d.m.Rejected))
	m.set("server.timeouts", "count", float64(d.m.Timeouts))
	m.set("shard.hits", "count", float64(d.m.CacheHits))
	m.set("shard.misses", "count", float64(d.m.CacheMisses))
	m.set("shard.evictions", "count", float64(d.m.CacheEvictions))
	m.set("shard.hit_ratio", "ratio", float64(d.m.CacheHits)/float64(max(1, d.m.CacheHits+d.m.CacheMisses)))
	res.layers = m
	return res, nil
}

// client runs the closed-loop client over a sequence, checking every
// reply outside the latency window.
func (w *serveMixed) client(ctx context.Context, seq []request, traced bool, nodes map[cat.Domain]int) clientRun {
	c := newClient()
	defer c.hc.CloseIdleConnections()
	var out clientRun
	// The transport calls the trace hooks from its own goroutines; they
	// store monotonic offsets from base.
	base := time.Now()
	var wrote, first atomic.Int64
	var ct *httptrace.ClientTrace
	if traced {
		ct = &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(base))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(base))) },
		}
	}
	blockStart := time.Now()
	for i, r := range seq {
		start := time.Now()
		status, body, err := c.do(ctx, w.base, r, ct)
		end := time.Now()
		lat := end.Sub(start).Seconds()
		out.all = append(out.all, lat)
		if traced && err == nil {
			write := time.Duration(wrote.Load()) - start.Sub(base)
			read := end.Sub(base) - time.Duration(first.Load())
			out.transport += (write + read).Seconds()
		}
		if r.hot >= 0 {
			out.hotLat = append(out.hotLat, lat)
		} else {
			out.missLat = append(out.missLat, lat)
			out.missNodes += float64(nodes[r.domain])
		}
		if err != nil || status != http.StatusOK || checkReply(r, body, w.warmed) != nil {
			out.failed++
		}
		if (i+1)%serveBlock == 0 {
			now := time.Now()
			out.blockSecs = append(out.blockSecs, now.Sub(blockStart).Seconds())
			blockStart = now
		}
	}
	return out
}

// checkReply requires a hot key to return the body it returned during
// warm-up, and a miss to be an analysis of the requested domain.
func checkReply(r request, body []byte, warmed []digest) error {
	if r.hot >= 0 {
		if digestOf(body) != warmed[r.hot] {
			return fmt.Errorf("%s %s: body differs from warm-up", r.method, r.path)
		}
		return nil
	}
	var got struct {
		Requirements struct {
			Domain cat.Domain `json:"domain"`
		} `json:"requirements"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", r.path, err)
	}
	if got.Requirements.Domain != r.domain {
		return fmt.Errorf("%s: domain %q in reply", r.path, got.Requirements.Domain)
	}
	return nil
}

// serveSnap is the server-side state a traced pass differences.
type serveSnap struct {
	m                       server.Metrics
	routeSecs               float64 // /v1 route histogram sums from /metrics
	characterize, footprint float64 // stage histogram sums
}

func (a serveSnap) sub(b serveSnap) serveSnap {
	return serveSnap{
		m: server.Metrics{
			Coalesced:      a.m.Coalesced - b.m.Coalesced,
			Rejected:       a.m.Rejected - b.m.Rejected,
			Timeouts:       a.m.Timeouts - b.m.Timeouts,
			CacheHits:      a.m.CacheHits - b.m.CacheHits,
			CacheMisses:    a.m.CacheMisses - b.m.CacheMisses,
			CacheEvictions: a.m.CacheEvictions - b.m.CacheEvictions,
		},
		routeSecs:    a.routeSecs - b.routeSecs,
		characterize: a.characterize - b.characterize,
		footprint:    a.footprint - b.footprint,
	}
}

// routeSumPrefix starts the /metrics line of one route's summed latency.
const routeSumPrefix = `catamount_http_request_duration_seconds_sum{endpoint="`

func (w *serveMixed) snap(ctx context.Context) (serveSnap, error) {
	s := serveSnap{
		m:            w.srv.Metrics(),
		characterize: obs.Stage("characterize").Snapshot().Sum,
		footprint:    obs.Stage("footprint").Snapshot().Sum,
	}
	c := newClient()
	defer c.hc.CloseIdleConnections()
	status, body, err := c.do(ctx, w.base, request{method: "GET", path: "/metrics"}, nil)
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", status)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, routeSumPrefix)
		if !ok {
			continue
		}
		endpoint, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			return s, fmt.Errorf("/metrics: unparsable line %q", line)
		}
		if !strings.Contains(endpoint, " /v1/") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return s, fmt.Errorf("/metrics: %w", err)
		}
		s.routeSecs += v
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if s.routeSecs == 0 {
		return s, errors.New("/metrics: no /v1 route latency series")
	}
	return s, nil
}
