package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"catamount/internal/obs"
)

// This file serves the flight recorder: GET /v1/traces lists retained
// traces (slowest first, filterable by route and minimum duration) together
// with the per-stage slowest-trace exemplars that link the stage latency
// histograms back to concrete traces; GET /v1/traces/{id} returns one
// trace as a span tree, or as Chrome trace-event JSON for Perfetto when
// asked via ?format=perfetto or the Accept header.

// tracesResponse is the GET /v1/traces payload.
type tracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
	Count  int                `json:"count"`
	// SlowestByStage maps each stage latency series to the trace that owns
	// its slowest observation — the histogram→trace pivot: spot a p99
	// regression on /metrics, fetch the trace that caused it here.
	SlowestByStage []obs.StageExemplar `json:"slowest_by_stage"`
}

// handleTraces lists retained traces. Filters: route (exact registered
// pattern, e.g. "POST /v1/sweep"), min_ms (minimum duration), limit.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			apiError(w, r, http.StatusBadRequest, "min_ms must be a non-negative number")
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			apiError(w, r, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	traces := obs.Flight.List(q.Get("route"), minDur, limit)
	writeJSON(w, r, tracesResponse{
		Traces:         traces,
		Count:          len(traces),
		SlowestByStage: obs.Default.StageSlowestTraces(),
	})
}

// handleTraceGet returns one retained trace. Default shape is the span
// tree (obs.TraceExport); ?format=perfetto — or an Accept header naming
// the Chrome trace-event type — switches to the trace-event JSON array
// that chrome://tracing and ui.perfetto.dev load directly.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	tr, ok := obs.Flight.Get(r.PathValue("id"))
	if !ok {
		apiError(w, r, http.StatusNotFound, "no such trace (the flight recorder keeps the slowest, errored, and most recent traces)")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "trace-event") {
		format = "perfetto"
	}
	switch format {
	case "", "tree", "json":
		writeJSON(w, r, tr.Export())
	case "perfetto", "chrome", "trace-event":
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteTraceEvents(w); err != nil {
			// Headers are gone; nothing better to do than log via the
			// request line's status (the write error usually means the
			// client went away).
			return
		}
	default:
		apiError(w, r, http.StatusBadRequest, "format must be tree or perfetto")
	}
}
