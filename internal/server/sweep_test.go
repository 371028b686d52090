package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func postSweep(t *testing.T, s *Server, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

type sweepLine struct {
	Seq          int     `json:"seq"`
	Domain       string  `json:"domain"`
	Accelerator  string  `json:"accelerator"`
	ParamTarget  float64 `json:"param_target"`
	Subbatch     float64 `json:"subbatch"`
	Params       float64 `json:"params"`
	FLOPsPerStep float64 `json:"flops_per_step"`
	StepSeconds  float64 `json:"step_seconds"`
	Error        string  `json:"error"`
}

func decodeNDJSON(t *testing.T, body *bytes.Buffer) []sweepLine {
	t.Helper()
	var out []sweepLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d is not JSON: %v: %s", len(out), err, sc.Text())
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSweepStreamNDJSON(t *testing.T) {
	s := newTestServer(Config{})
	rec := postSweep(t, s, `{
		"domains": ["wordlm", "nmt"],
		"params": [1e8, 2e8],
		"subbatches": [64],
		"accelerators": ["v100", "a100"]
	}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := decodeNDJSON(t, rec.Body)
	if len(lines) != 2*2*1*2 {
		t.Fatalf("streamed %d lines, want 8", len(lines))
	}
	for i, l := range lines {
		if l.Seq != i {
			t.Fatalf("line %d has seq %d: order not deterministic", i, l.Seq)
		}
		if l.Error != "" || l.FLOPsPerStep <= 0 || l.StepSeconds <= 0 {
			t.Fatalf("line %d degenerate: %+v", i, l)
		}
	}
	// Flush-per-chunk: the recorder saw at least one explicit flush.
	if !rec.Flushed {
		t.Fatal("stream was never flushed")
	}
	m := s.Metrics()
	if m.SweepStreams != 1 || m.SweepPoints != 8 {
		t.Fatalf("sweep counters: %+v", m)
	}
	// Streams bypass the response cache.
	if m.CacheEntries != 0 || m.CacheMisses != 0 {
		t.Fatalf("sweep touched the cache: %+v", m)
	}
}

func TestSweepStreamCSV(t *testing.T) {
	s := newTestServer(Config{})
	rec := postSweep(t, s, `{"domains":["wordlm"],"params":[1e8]}`,
		map[string]string{"Accept": "text/csv"})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	records, err := csv.NewReader(rec.Body).ReadAll()
	if err != nil {
		t.Fatalf("body is not CSV: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("%d CSV records, want header + 1 row", len(records))
	}
	if records[0][0] != "seq" || records[1][1] != "wordlm" {
		t.Fatalf("unexpected CSV: %v", records)
	}
}

func TestSweepMalformedSpecs(t *testing.T) {
	s := newTestServer(Config{MaxSweepPoints: 100})
	cases := []struct {
		name, body string
		wantSub    string
	}{
		{"not json", `{nope`, "invalid sweep spec"},
		{"unknown field", `{"parms": [1e8]}`, "unknown field"},
		{"no params", `{"domains": ["wordlm"]}`, "needs params"},
		{"unknown domain", `{"domains": ["tabular"], "params": [1e8]}`, "unknown domain"},
		{"unknown accelerator", `{"params": [1e8], "accelerators": ["abacus"]}`, "unknown accelerator"},
		{"negative params", `{"params": [-1]}`, "positive finite"},
		{"grid too large", `{"params": [1e8,2e8,3e8,4e8,5e8], "subbatches":[1,2,4,8,16]}`, "server limit"},
	}
	for _, tc := range cases {
		rec := postSweep(t, s, tc.body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
			continue
		}
		var env struct {
			Error struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error.Message, tc.wantSub) {
			t.Errorf("%s: error envelope %q missing %q", tc.name, rec.Body, tc.wantSub)
		}
	}
	// Nothing was admitted as a stream.
	if m := s.Metrics(); m.SweepStreams != 0 || m.SweepPoints != 0 {
		t.Fatalf("malformed specs started streams: %+v", m)
	}
	// Wrong method on the pattern.
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep = %d, want 405", rec.Code)
	}
}

func TestSweepPerPointErrorsKeepStreaming(t *testing.T) {
	// One unreachable parameter target must fail its own points and leave
	// the rest of the stream intact — error-per-point, not fail-the-grid.
	s := newTestServer(Config{})
	rec := postSweep(t, s, `{
		"domains": ["wordlm", "charlm"],
		"params": [1e8, 1e300],
		"accelerators": ["v100", "h100"]
	}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body)
	}
	lines := decodeNDJSON(t, rec.Body)
	if len(lines) != 2*2*1*2 {
		t.Fatalf("stream truncated: %d lines, want 8", len(lines))
	}
	var failed, healthy int
	for _, l := range lines {
		switch {
		case l.ParamTarget == 1e300:
			if l.Error == "" {
				t.Fatalf("unreachable point %d has no error: %+v", l.Seq, l)
			}
			failed++
		default:
			if l.Error != "" {
				t.Fatalf("healthy point %d failed: %s", l.Seq, l.Error)
			}
			healthy++
		}
	}
	if failed != 4 || healthy != 4 {
		t.Fatalf("failed=%d healthy=%d, want 4 and 4", failed, healthy)
	}
}

// disconnectingWriter simulates a client that drops mid-stream: after
// `after` successful writes it cancels the request context and fails every
// subsequent write, as net/http does once the peer is gone.
type disconnectingWriter struct {
	h      http.Header
	writes int
	after  int
	cancel context.CancelFunc
	gone   bool
}

func (d *disconnectingWriter) Header() http.Header { return d.h }
func (d *disconnectingWriter) WriteHeader(int)     {}
func (d *disconnectingWriter) Flush()              {}
func (d *disconnectingWriter) Write(b []byte) (int, error) {
	if d.gone {
		return 0, errors.New("write on closed connection")
	}
	d.writes++
	if d.writes >= d.after {
		d.gone = true
		d.cancel()
	}
	return len(b), nil
}

func TestSweepClientDisconnectMidStream(t *testing.T) {
	s := newTestServer(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &disconnectingWriter{h: make(http.Header), after: 3, cancel: cancel}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(
		`{"params": [5e7, 1e8, 2e8], "subbatches": [16, 32, 64, 128]}`)).WithContext(ctx)

	// ServeHTTP must return instead of hanging once the client is gone.
	s.ServeHTTP(w, req)

	total := int64(5 * 3 * 4 * 1)
	if pts := s.Metrics().SweepPoints; pts >= total {
		t.Fatalf("streamed all %d points to a disconnected client", pts)
	}
	// The server survived and still serves.
	if rec, _ := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after disconnect = %d", rec.Code)
	}
	// The stream's compute-semaphore token was released: a follow-up sweep
	// still streams to completion.
	rec := postSweep(t, s, `{"domains":["wordlm"],"params":[1e8]}`, nil)
	if rec.Code != http.StatusOK || len(decodeNDJSON(t, rec.Body)) != 1 {
		t.Fatalf("sweep after disconnect = %d %s", rec.Code, rec.Body)
	}
}

// TestSweepOverflowingPointStreams: a subbatch of 1e300 overflows an image
// point's FLOPs to +Inf. The point must stream as an error line inside a
// 200 NDJSON or CSV stream, not fail the request (it used to answer 504
// "timeout" with "json: unsupported value: +Inf").
func TestSweepOverflowingPointStreams(t *testing.T) {
	s := newTestServer(Config{})
	spec := `{"domains":["image"],"params":[1e8],"subbatches":[1e300]}`
	rec := postSweep(t, s, spec, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body)
	}
	lines := decodeNDJSON(t, rec.Body)
	if len(lines) != 1 || !strings.Contains(lines[0].Error, "flops_per_step is +Inf") || lines[0].FLOPsPerStep != 0 {
		t.Fatalf("stream = %+v, want one error point naming flops_per_step", lines)
	}
	rec = postSweep(t, s, spec, map[string]string{"Accept": "text/csv"})
	if rec.Code != http.StatusOK {
		t.Fatalf("CSV sweep = %d %s", rec.Code, rec.Body)
	}
	rows, err := csv.NewReader(rec.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !strings.Contains(rows[1][len(rows[1])-1], "flops_per_step is +Inf") ||
		slices.Contains(rows[1], "+Inf") || slices.Contains(rows[1], "NaN") {
		t.Fatalf("CSV = %q, want a header and one error row with no non-finite value", rows)
	}
}

// failingWriter fails every write while its request stays live: a run
// failure that is not the request's end.
type failingWriter struct {
	h      http.Header
	status int
}

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(status int)    { f.status = status }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

// TestSweepFailureStatus: a run that fails before any point is on the wire
// answers 504 "timeout" only when the request has ended; any other failure
// is a 500.
func TestSweepFailureStatus(t *testing.T) {
	s := newTestServer(Config{})
	spec := `{"domains":["wordlm"],"params":[1e8]}`

	w := &failingWriter{h: make(http.Header)}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec)))
	if w.status != http.StatusInternalServerError {
		t.Fatalf("failed write on a live request = %d, want 500", w.status)
	}
	if n := s.Metrics().Timeouts; n != 0 {
		t.Fatalf("failed write counted as %d timeouts", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec)).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"code":"timeout"`) {
		t.Fatalf("ended request = %d %s, want 504 timeout", rec.Code, rec.Body)
	}
}
