package server

import (
	"catamount/internal/api"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"catamount/internal/sweep"
)

// sweepWriteTimeout bounds each chunk write of a sweep stream: a healthy
// client acknowledges within this window even across slow links, while a
// vanished one turns into a write error that releases the stream's
// compute token.
const sweepWriteTimeout = 15 * time.Second

// This file is the bulk-sweep endpoint: POST /v1/sweep takes a SweepSpec
// JSON body and streams the grid back as NDJSON (or CSV via Accept:
// text/csv), one point per line, flushed per chunk so clients see results
// as cells complete. Streams bypass the response cache and single-flight
// group — the key space is the body and the value is unbounded — but hold
// one compute-semaphore token for their whole run, so sweeps and point
// queries share the same upstream concurrency budget.

// handleSweep validates the spec (every validation failure is a 400 before
// any byte of the stream is written), then streams the grid. Per-point
// failures ride inside their points without truncating the stream; a
// run-level failure after streaming has begun is appended as a final
// `{"error": ...}` line (NDJSON) or error-column row (CSV), since the
// status line is already on the wire.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if err := api.DecodeJSON(w, r.Body, 1<<20, &spec); err != nil {
		apiError(w, r, http.StatusBadRequest, "invalid sweep spec: "+err.Error())
		return
	}
	// The "costmodel" query parameter wins over the spec field — the one
	// precedence rule, owned by internal/api.
	api.OverrideCostModel(&spec.CostModel, r.URL.Query().Get("costmodel"))
	// A stream is admitted as one compute-semaphore token, so its worker
	// pool must stay one machine share wide: the spec's workers knob may
	// shrink the pool but never exceed GOMAXPROCS, or K admitted streams
	// would fan out to 4·K·GOMAXPROCS goroutines and starve every other
	// token holder.
	if spec.Workers <= 0 || spec.Workers > runtime.GOMAXPROCS(0) {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
	runner, err := sweep.New(s.eng, spec)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if n := runner.Points(); n > s.maxSweepPoints {
		// The limit guards the serving process, not the analysis: huge
		// grids belong on cmd/sweep, where no request deadline applies.
		apiError(w, r, http.StatusBadRequest, fmt.Sprintf(
			"sweep grid has %d points, server limit is %d (split the grid or use cmd/sweep)",
			n, s.maxSweepPoints))
		return
	}
	// Metered only once the grid is admitted: rejected requests must not
	// inflate the per-backend served counters.
	s.countCostModel(runner.CostModel())

	select {
	case s.computeSem <- struct{}{}:
	case <-r.Context().Done():
		s.timeouts.Add(1)
		apiError(w, r, http.StatusGatewayTimeout, "request deadline exceeded")
		return
	}
	defer func() { <-s.computeSem }()
	s.sweepStreams.Add(1)

	asCSV := wantsCSV(r.Header.Get("Accept"))
	if asCSV {
		w.Header().Set("Content-Type", "text/csv")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	// Per-chunk write deadlines (best-effort: recorders don't support
	// them) keep a stalled reader from pinning this stream's compute
	// token forever: the request context cancels the workers, but only a
	// deadline can unblock a Write stuck on a full socket buffer. The
	// deadline rolls forward with each chunk and is cleared on exit so a
	// kept-alive connection starts its next request clean.
	rc := http.NewResponseController(w)
	armWriteDeadline := func() {
		_ = rc.SetWriteDeadline(time.Now().Add(sweepWriteTimeout))
	}
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	enc := sweep.NewLineEncoder(w)
	streaming := false
	if asCSV {
		armWriteDeadline()
		if err := enc.CSVHeader(); err != nil {
			return
		}
		streaming = true
		if flusher != nil {
			flusher.Flush()
		}
	}

	runErr := runner.Run(r.Context(), func(p sweep.Point) error {
		armWriteDeadline()
		var werr error
		if asCSV {
			werr = enc.CSVRecord(p)
		} else {
			werr = enc.NDJSON(p)
		}
		if werr != nil {
			return werr
		}
		streaming = true
		s.sweepPoints.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if runErr == nil {
		return
	}
	timedOut := r.Context().Err() != nil
	if timedOut {
		s.timeouts.Add(1)
	}
	if !streaming {
		// Nothing on the wire yet: a clean error response is still possible.
		// Only an ended request is a timeout; any other run failure, such
		// as a point that fails to encode, is the server's.
		status := http.StatusInternalServerError
		if timedOut {
			status = http.StatusGatewayTimeout
		}
		apiError(w, r, status, runErr.Error())
		return
	}
	// Mid-stream: the status is committed, so append the error in-band. A
	// disconnected client never sees it; a deadline-hit one does.
	armWriteDeadline()
	if asCSV {
		enc.CSVRecord(sweep.Point{Seq: -1, Error: runErr.Error()})
	} else {
		enc.NDJSON(sweep.Point{Seq: -1, Error: runErr.Error()})
	}
}

// wantsCSV reports whether the Accept header prefers CSV over the NDJSON
// default. A full content-negotiation parse is overkill for two formats.
func wantsCSV(accept string) bool {
	return strings.Contains(accept, "text/csv")
}
