package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"catamount/internal/api"
	"catamount/internal/costmodel"
	"catamount/internal/jobs"
	"catamount/internal/sweep"
)

// This file is the async half of the v1 surface: POST /v1/jobs accepts a
// sweep or plan spec and returns immediately with a job ID; the jobs
// service evaluates it in the background with checkpointed progress, and
// the job endpoints expose the lifecycle — status with progress and ETA,
// paginated results with cursor tokens and ETags, cancellation, deletion.
// Unlike POST /v1/sweep, a job is not bounded by the request deadline or
// MaxSweepPoints, and with a file-backed store it survives restarts.

// jobPageLimitDefault / Max bound the "limit" results-page parameter.
const (
	jobPageLimitDefault = 1000
	jobPageLimitMax     = 10000
)

// jobError maps a jobs-service error onto the v1 envelope.
func (s *Server) jobError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrNotTerminal), errors.Is(err, jobs.ErrTerminal):
		status = http.StatusConflict
	}
	apiError(w, r, status, err.Error())
}

// countCostModelName meters a job admission under the per-backend served
// counters, from the resolved canonical backend name.
func (s *Server) countCostModelName(name string) {
	if name == costmodel.PerOpName {
		s.cmPerop.Add(1)
		return
	}
	s.cmGraph.Add(1)
}

// handleJobSubmit accepts a JobSpec, folds the "costmodel" query parameter
// into it under the api precedence rule (query > spec field), validates it
// fully (every rejection is a 400 with the envelope), and queues it.
// Responds 202 with the job's status and a Location header.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	if err := api.DecodeJSON(w, r.Body, 1<<20, &spec); err != nil {
		apiError(w, r, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	spec.ApplyCostModelParam(r.URL.Query().Get("costmodel"))
	m, err := s.jobsSvc.Submit(spec)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.countCostModelName(m.CostModel)
	st, err := s.jobsSvc.StatusOf(m.ID)
	if err != nil {
		st = jobs.Status{Meta: m}
	}
	w.Header().Set("Location", "/v1/jobs/"+m.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	b, _ := json.Marshal(st)
	w.Write(append(b, '\n'))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	metas := s.jobsSvc.List()
	sts := make([]jobs.Status, 0, len(metas))
	for _, m := range metas {
		if st, err := s.jobsSvc.StatusOf(m.ID); err == nil {
			sts = append(sts, st)
		}
	}
	writeJSON(w, r, map[string]any{"jobs": sts, "count": len(sts)})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobsSvc.StatusOf(r.PathValue("id"))
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	writeJSON(w, r, st)
}

// handleJobDelete cancels an active job (the job transitions to cancelled,
// keeping its partial results readable) and deletes a terminal one.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.jobsSvc.Get(id)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	if m.State.Terminal() {
		if err := s.jobsSvc.Delete(id); err != nil {
			s.jobError(w, r, err)
			return
		}
		writeJSON(w, r, map[string]any{"id": id, "deleted": true})
		return
	}
	if _, err := s.jobsSvc.Cancel(id); err != nil {
		s.jobError(w, r, err)
		return
	}
	st, err := s.jobsSvc.StatusOf(id)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	writeJSON(w, r, st)
}

// ---------------------------------------------------------------------------
// Paginated results

// encodeJobCursor mints the opaque page token: versioned and bound to its
// job, so a token cannot be replayed against another job's stream.
func encodeJobCursor(id string, start int) string {
	return base64.RawURLEncoding.EncodeToString(fmt.Appendf(nil, "v1|%s|%d", id, start))
}

func decodeJobCursor(tok, id string) (int, error) {
	b, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("invalid cursor")
	}
	parts := strings.Split(string(b), "|")
	if len(parts) != 3 || parts[0] != "v1" {
		return 0, fmt.Errorf("invalid cursor")
	}
	if parts[1] != id {
		return 0, fmt.Errorf("cursor belongs to job %q", parts[1])
	}
	start, err := strconv.Atoi(parts[2])
	if err != nil || start < 0 {
		return 0, fmt.Errorf("invalid cursor")
	}
	return start, nil
}

// jobResultsJSON is the format=json page envelope.
type jobResultsJSON struct {
	JobID       string            `json:"job_id"`
	State       jobs.State        `json:"state"`
	Start       int               `json:"start"`
	Count       int               `json:"count"`
	DonePoints  int               `json:"done_points"`
	TotalPoints int               `json:"total_points"`
	NextCursor  string            `json:"next_cursor,omitempty"`
	Points      []json.RawMessage `json:"points"`
}

// handleJobResults serves one page of a job's checkpointed result stream.
//
// Paging: "cursor" (an opaque token from a previous page, or X-Next-Cursor)
// or "start" (explicit line index) select the window; "limit" bounds it.
// Pages never cross the job's checkpoint, so every page is a stable window
// into the deterministic output order — concatenating ndjson pages from 0
// until exhaustion reproduces the synchronous stream byte for byte.
//
// Formats: ndjson (default), json (enveloped with next_cursor), csv (sweep
// jobs; each page is a standalone CSV document with a header row).
//
// Caching: the response carries a strong ETag derived from the exact page
// identity (job, window, checkpoint state); If-None-Match answers 304 with
// no body. A page of a terminal job is immutable, so its ETag is final.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()

	limit := jobPageLimitDefault
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			apiError(w, r, http.StatusBadRequest, fmt.Sprintf("parameter \"limit\": invalid value %q", raw))
			return
		}
		limit = min(v, jobPageLimitMax)
	}
	start := 0
	if tok := q.Get("cursor"); tok != "" {
		v, err := decodeJobCursor(tok, id)
		if err != nil {
			apiError(w, r, http.StatusBadRequest, "parameter \"cursor\": "+err.Error())
			return
		}
		start = v
	} else if raw := q.Get("start"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			apiError(w, r, http.StatusBadRequest, fmt.Sprintf("parameter \"start\": invalid value %q", raw))
			return
		}
		start = v
	}
	format := q.Get("format")
	if format == "" {
		if wantsCSV(r.Header.Get("Accept")) {
			format = "csv"
		} else {
			format = "ndjson"
		}
	}
	var isSweepJob bool
	if m, err := s.jobsSvc.Get(id); err == nil {
		isSweepJob = m.Spec.Type == api.JobTypeSweep
	}
	switch format {
	case "ndjson", "json":
	case "csv":
		if !isSweepJob {
			apiError(w, r, http.StatusBadRequest, "format \"csv\" applies to sweep jobs only")
			return
		}
	default:
		apiError(w, r, http.StatusBadRequest, fmt.Sprintf("unknown format %q (ndjson, json, csv)", format))
		return
	}

	pg, err := s.jobsSvc.Results(id, start, limit)
	if err != nil {
		s.jobError(w, r, err)
		return
	}

	// The ETag is the exact page identity: same job, same window, same
	// checkpoint, same state, same format → byte-identical body.
	etag := fmt.Sprintf("\"%s/%d/%d/%d/%s/%s\"", pg.JobID, pg.Start, pg.Count, pg.Done, pg.State, format)
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Job-State", string(pg.State))
	w.Header().Set("X-Done-Points", strconv.Itoa(pg.Done))
	w.Header().Set("X-Total-Points", strconv.Itoa(pg.Total))
	nextCursor := ""
	if !pg.State.Terminal() || pg.NextStart < pg.Done {
		nextCursor = encodeJobCursor(pg.JobID, pg.NextStart)
		w.Header().Set("X-Next-Cursor", nextCursor)
	}
	if matchETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	switch format {
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, line := range pg.Lines {
			w.Write(line)
			w.Write([]byte("\n"))
		}
	case "json":
		pts := make([]json.RawMessage, len(pg.Lines))
		for i, line := range pg.Lines {
			pts[i] = json.RawMessage(line)
		}
		writeJSON(w, r, jobResultsJSON{
			JobID:       pg.JobID,
			State:       pg.State,
			Start:       pg.Start,
			Count:       pg.Count,
			DonePoints:  pg.Done,
			TotalPoints: pg.Total,
			NextCursor:  nextCursor,
			Points:      pts,
		})
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		enc := sweep.NewLineEncoder(w)
		if err := enc.CSVHeader(); err != nil {
			return
		}
		for _, line := range pg.Lines {
			var p sweep.Point
			if err := json.Unmarshal(line, &p); err != nil {
				p = sweep.Point{Seq: -1, Error: "corrupt result line: " + err.Error()}
			}
			if err := enc.CSVRecord(p); err != nil {
				return
			}
		}
	}
}

// matchETag implements the subset of If-None-Match the results endpoint
// needs: "*", or a comma-separated list of (possibly weak) entity tags.
func matchETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}
