package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	cat "catamount"
	"catamount/internal/api"
	"catamount/internal/costmodel"
	"catamount/internal/hw"
)

// This file is the cache persistence layer: a response-cache snapshot that
// survives restarts, plus the POST /v1/admin/warmup endpoint that replays a
// saved key list through the serving stack. Together they close the cold-
// start gap — a redeployed catamountd answers its working set from the
// first request instead of recomputing it.

// snapshotSchema versions the snapshot file layout. Bump on any change to
// cacheSnapshot/snapshotEntry; readers refuse other versions outright
// rather than guessing.
const snapshotSchema = 1

// cacheSnapshot is the on-disk form: a schema version, the producing
// binary's VCS revision, a fingerprint of the analysis catalog, and the
// cached responses ordered least-recently-used first (so replaying them
// with Add reconstructs the recency order exactly).
type cacheSnapshot struct {
	Schema  int             `json:"schema"`
	Build   string          `json:"build"`
	Catalog string          `json:"catalog"`
	SavedAt string          `json:"saved_at,omitempty"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one cached response: the canonical cache key and the
// marshaled JSON payload it mapped to.
type snapshotEntry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// errSnapshotStale marks a snapshot produced by a different binary or
// catalog: loading it would serve answers the current build might compute
// differently, so the loader refuses and the server starts cold.
var errSnapshotStale = errors.New("cache snapshot is stale")

// catalogFingerprint hashes everything a cached response can depend on
// besides the request itself: the domain list, every catalog accelerator's
// full parameter vector, and the step-time backend names. Any drift in
// these invalidates old cache entries even when the VCS revision is
// unavailable (e.g. non-VCS builds).
func catalogFingerprint() string {
	h := fnv.New64a()
	for _, d := range cat.Domains() {
		io.WriteString(h, string(d))
		io.WriteString(h, "\x00")
	}
	for _, a := range hw.Catalog() {
		io.WriteString(h, a.Fingerprint())
		io.WriteString(h, "\x00")
	}
	for _, info := range costmodel.Infos() {
		io.WriteString(h, info.Name)
		io.WriteString(h, "\x00")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteSnapshot serializes the response cache to w, least-recently-used
// entries first.
func (s *Server) WriteSnapshot(w io.Writer) error {
	dump := s.cache.Dump()
	snap := cacheSnapshot{
		Schema:  snapshotSchema,
		Catalog: catalogFingerprint(),
		SavedAt: time.Now().UTC().Format(time.RFC3339),
		Entries: make([]snapshotEntry, 0, len(dump)),
	}
	snap.Build, _ = buildRevision()
	for _, e := range dump {
		snap.Entries = append(snap.Entries, snapshotEntry{Key: e.Key, Val: json.RawMessage(e.Val)})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// ReadSnapshot loads a snapshot into the response cache, returning how
// many entries it restored. A snapshot from a different schema version,
// binary revision, or analysis catalog is refused with errSnapshotStale —
// a cold cache is recoverable, stale answers are not. Entries replay in
// dump order (least-recent first), so the restored cache evicts in the
// same order the saved one would have; only the newest Capacity() valid
// entries replay, so every one counted is resident afterwards.
func (s *Server) ReadSnapshot(r io.Reader) (int, error) {
	var snap cacheSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return 0, fmt.Errorf("decode cache snapshot: %w", err)
	}
	if snap.Schema != snapshotSchema {
		return 0, fmt.Errorf("%w: schema %d, want %d", errSnapshotStale, snap.Schema, snapshotSchema)
	}
	build, _ := buildRevision()
	if snap.Build != build {
		return 0, fmt.Errorf("%w: built at revision %q, this binary is %q", errSnapshotStale, snap.Build, build)
	}
	if cf := catalogFingerprint(); snap.Catalog != cf {
		return 0, fmt.Errorf("%w: catalog fingerprint %q, this binary has %q", errSnapshotStale, snap.Catalog, cf)
	}
	valid := snap.Entries[:0]
	for _, e := range snap.Entries {
		if e.Key != "" && json.Valid(e.Val) {
			valid = append(valid, e)
		}
	}
	if extra := len(valid) - s.cache.Capacity(); extra > 0 {
		valid = valid[extra:]
	}
	for _, e := range valid {
		s.cache.Add(e.Key, []byte(e.Val))
	}
	return len(valid), nil
}

// SaveSnapshotFile writes the snapshot atomically: a temp file in the
// target directory, fsynced, then renamed over path. A crash mid-save
// leaves the previous snapshot intact, never a truncated one.
func (s *Server) SaveSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshotFile restores the cache from path. A missing file is not an
// error to the caller's boot path (fs.ErrNotExist passes through for the
// caller to detect); a stale or corrupt file returns a descriptive error
// and leaves the cache untouched or partially warmed — either way the
// server serves correctly, just colder.
func (s *Server) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}

// ---------------------------------------------------------------------------
// Warmup endpoint

// maxWarmupPaths bounds one warmup request; larger key lists should be
// split by the operator rather than monopolizing the server.
const maxWarmupPaths = 4096

// warmupRequest is the POST /v1/admin/warmup body: GET request paths
// (path + query, e.g. "/v1/analyze?domain=word_lms&params=1e9") to replay
// internally so their responses land in the cache.
type warmupRequest struct {
	Paths []string `json:"paths"`
}

// warmupResult reports one replayed path.
type warmupResult struct {
	Path   string `json:"path"`
	Status int    `json:"status"`
}

// warmupResponse summarizes a warmup run.
type warmupResponse struct {
	Requested int            `json:"requested"`
	Warmed    int            `json:"warmed"`
	Failed    int            `json:"failed"`
	Failures  []warmupResult `json:"failures,omitempty"`
}

// handleWarmup replays a list of GET paths through the router so their
// responses populate the cache — the online half of snapshot warmup: a
// snapshot restores what was cached at shutdown, warmup precomputes a
// known working set on demand. Paths replay sequentially under the
// caller's deadline; each one runs the full handler (single-flight,
// compute semaphore, cache fill) but bypasses the admission limiter —
// warming must not compete with, or be shed by, live traffic admission.
func (s *Server) handleWarmup(w http.ResponseWriter, r *http.Request) {
	var req warmupRequest
	if err := api.DecodeJSON(w, r.Body, 1<<20, &req); err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Paths) == 0 {
		apiError(w, r, http.StatusBadRequest, "missing required field \"paths\"")
		return
	}
	if len(req.Paths) > maxWarmupPaths {
		apiError(w, r, http.StatusBadRequest,
			fmt.Sprintf("too many paths: %d exceeds the per-request limit of %d", len(req.Paths), maxWarmupPaths))
		return
	}
	resp := warmupResponse{Requested: len(req.Paths)}
	for _, p := range req.Paths {
		u, err := url.ParseRequestURI(p)
		if err != nil || u.Scheme != "" || u.Host != "" || !strings.HasPrefix(u.Path, "/v1/") {
			resp.Failed++
			resp.Failures = append(resp.Failures, warmupResult{Path: p, Status: http.StatusBadRequest})
			continue
		}
		if strings.HasPrefix(u.Path, "/v1/admin/") {
			// No recursion: a warmup list cannot replay admin endpoints.
			resp.Failed++
			resp.Failures = append(resp.Failures, warmupResult{Path: p, Status: http.StatusBadRequest})
			continue
		}
		if err := r.Context().Err(); err != nil {
			// Deadline spent: report what was warmed rather than discarding
			// the accounting with a timeout error.
			break
		}
		inner, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p, nil)
		if err != nil {
			resp.Failed++
			resp.Failures = append(resp.Failures, warmupResult{Path: p, Status: http.StatusBadRequest})
			continue
		}
		rec := &verdictRecorder{hdr: make(http.Header)}
		s.mux.ServeHTTP(rec, inner)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if status < 400 {
			resp.Warmed++
		} else {
			resp.Failed++
			resp.Failures = append(resp.Failures, warmupResult{Path: p, Status: status})
		}
	}
	writeJSON(w, resp)
}
