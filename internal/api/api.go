// Package api is the versioned contract of the catamountd v1 HTTP surface:
// the request-spec types shared by the server and the CLIs, the one error
// envelope every non-2xx response uses, and the single place the
// "costmodel" query-parameter vs spec-field duplication is resolved.
//
// Before this package, each transport grew its own copy of the schema —
// internal/sweep owned the sweep spec, internal/plan the plan spec, the
// server and both CLIs re-plumbed the cost-model selector independently,
// and error bodies varied per handler. api centralizes the wire types so a
// v2 can exist alongside v1 instead of mutating it, and so the OpenAPI
// document, the server, and the CLIs provably describe the same structs.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"catamount/internal/hw"
)

// ---------------------------------------------------------------------------
// v1 request specs
//
// SweepSpec and PlanSpec are the canonical definitions; internal/sweep.Spec
// and internal/plan.Spec are aliases of them, so every existing caller (and
// the Engine facade) consumes these types already.

// SweepSpec describes a sweep grid. The zero value of each field means
// "the paper's default": all five domains, each domain's profiling
// subbatch, the Table 4 target accelerator. Parameter targets are the one
// mandatory axis, either explicit (Params) or as a log-spaced range
// (ParamMin/ParamMax/ParamSteps). This is the JSON schema of
// POST /v1/sweep, the sweep half of POST /v1/jobs, and the flag schema of
// cmd/sweep.
type SweepSpec struct {
	// Domains lists domain names ("wordlm", "charlm", "nmt", "speech",
	// "image"); empty means all five in Table 1 order.
	Domains []string `json:"domains,omitempty"`
	// Params are explicit parameter-count targets.
	Params []float64 `json:"params,omitempty"`
	// ParamMin/ParamMax/ParamSteps describe a log-spaced target range,
	// mutually exclusive with Params.
	ParamMin   float64 `json:"param_min,omitempty"`
	ParamMax   float64 `json:"param_max,omitempty"`
	ParamSteps int     `json:"param_steps,omitempty"`
	// Subbatches lists subbatch sizes; empty means each domain's paper
	// profiling subbatch (Model.DefaultBatch).
	Subbatches []float64 `json:"subbatches,omitempty"`
	// Accelerators names catalog entries or aliases; Custom adds inline
	// devices in the catalog interchange schema. Both empty means the
	// paper's Table 4 target.
	Accelerators []string         `json:"accelerators,omitempty"`
	Custom       []hw.Accelerator `json:"custom_accelerators,omitempty"`
	// CostModel selects the step-time backend ("graph", "perop", or an
	// alias; empty means the default graph-level Roofline). Every point's
	// StepSeconds/Utilization/ComputeBound route through it. A "costmodel"
	// query parameter on the request URL overrides this field — see
	// OverrideCostModel.
	CostModel string `json:"costmodel,omitempty"`
	// Workers bounds the evaluation pool (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// PlanSpec describes one inverse capacity query: the target and the search
// space. The zero value of each search-space field means "the default
// grid". This is the JSON schema of POST /v1/plan, the plan half of
// POST /v1/jobs, and the flag schema of cmd/plan.
type PlanSpec struct {
	// Domain names the Table 1 domain ("wordlm", "charlm", "nmt",
	// "speech", "image"). Required.
	Domain string `json:"domain"`
	// TargetErr is the desired accuracy in the domain's error-like metric
	// (lower is better). Zero means the domain's Table 1 desired SOTA.
	// Values below the domain's irreducible error are rejected.
	TargetErr float64 `json:"target_err,omitempty"`
	// Epochs is the number of passes over the target dataset (default 1,
	// matching the paper's epoch accounting).
	Epochs float64 `json:"epochs,omitempty"`
	// BudgetHours / BudgetUSD bound time-to-train and total cost; zero
	// means unbounded. Plans over budget are annotated infeasible.
	BudgetHours float64 `json:"budget_hours,omitempty"`
	BudgetUSD   float64 `json:"budget_usd,omitempty"`

	// Accelerators names catalog entries or aliases to search; Custom adds
	// inline devices in the catalog interchange schema. Both empty means
	// the whole catalog.
	Accelerators []string         `json:"accelerators,omitempty"`
	Custom       []hw.Accelerator `json:"custom_accelerators,omitempty"`
	// WorkerCounts lists data-parallel worker counts; empty means powers
	// of two from 1 to 16384 (the Figure 12 sweep domain).
	WorkerCounts []int `json:"worker_counts,omitempty"`
	// Subbatches lists per-worker subbatch sizes; empty means powers of
	// two from 8 to 512 (bracketing every domain's §5.2.1 choice).
	Subbatches []float64 `json:"subbatches,omitempty"`
	// Strategies lists parallelism strategies; empty means all.
	Strategies []string `json:"strategies,omitempty"`

	// CostModel selects the step-time backend ("graph", "perop", or an
	// alias; empty means the default graph-level Roofline). Every
	// candidate's compute time — and therefore train hours, cost, and the
	// Pareto frontier — routes through it. A "costmodel" query parameter
	// on the request URL overrides this field — see OverrideCostModel.
	CostModel string `json:"costmodel,omitempty"`

	// MinSubbatch is the smallest admissible per-worker subbatch (default
	// 1); candidates below it are annotated infeasible, reflecting
	// kernel-occupancy limits the Roofline cannot see.
	MinSubbatch float64 `json:"min_subbatch,omitempty"`
	// OverlapBuckets is the gradient bucket count of StrategyOverlap
	// (default 16).
	OverlapBuckets int `json:"overlap_buckets,omitempty"`
	// Workers bounds the candidate-evaluation pool (default GOMAXPROCS),
	// forwarded to the internal/sweep runner.
	Workers int `json:"workers,omitempty"`
}

// Job types accepted by POST /v1/jobs.
const (
	JobTypeSweep = "sweep"
	JobTypePlan  = "plan"
)

// JobSpec is the POST /v1/jobs request body: one async unit of work, either
// a sweep grid or a planner search. Exactly one of Sweep / Plan must be set
// and must match Type.
type JobSpec struct {
	// Type is "sweep" or "plan".
	Type string `json:"type"`
	// Sweep is the grid to evaluate when Type == "sweep".
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Plan is the search to run when Type == "plan".
	Plan *PlanSpec `json:"plan,omitempty"`
}

// Validate checks the type/payload pairing. Spec-level validation (domains,
// ranges, devices) happens where the sweep or plan is constructed.
func (s JobSpec) Validate() error {
	switch s.Type {
	case JobTypeSweep:
		if s.Sweep == nil {
			return fmt.Errorf("job spec: type %q needs a \"sweep\" payload", s.Type)
		}
		if s.Plan != nil {
			return fmt.Errorf("job spec: type %q must not carry a \"plan\" payload", s.Type)
		}
	case JobTypePlan:
		if s.Plan == nil {
			return fmt.Errorf("job spec: type %q needs a \"plan\" payload", s.Type)
		}
		if s.Sweep != nil {
			return fmt.Errorf("job spec: type %q must not carry a \"sweep\" payload", s.Type)
		}
	case "":
		return fmt.Errorf("job spec: missing required field \"type\" (%s, %s)", JobTypeSweep, JobTypePlan)
	default:
		return fmt.Errorf("job spec: unknown type %q (%s, %s)", s.Type, JobTypeSweep, JobTypePlan)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Cost-model resolution
//
// Two channels can name the step-time backend: the "costmodel" query
// parameter (the only channel on the GET point endpoints) and the CostModel
// spec field (the natural home in a POSTed spec). Before api, each handler
// resolved the pair ad hoc. The rule, in one place:
//
//	query parameter > spec field > default (graph-level Roofline)
//
// An explicit query parameter wins so a caller can re-price a stored spec
// (a replayed job file, a saved sweep body) under another backend without
// editing it.

// OverrideCostModel folds a request's "costmodel" query parameter into a
// spec's CostModel field under that precedence: a non-empty query
// parameter replaces the field, an empty one leaves it alone.
func OverrideCostModel(field *string, queryParam string) {
	if queryParam != "" {
		*field = queryParam
	}
}

// ApplyCostModelParam folds a request's "costmodel" query parameter into a
// job spec under the same precedence, so the persisted spec records the
// backend the job will actually run with.
func (s *JobSpec) ApplyCostModelParam(queryParam string) {
	switch {
	case s.Sweep != nil:
		OverrideCostModel(&s.Sweep.CostModel, queryParam)
	case s.Plan != nil:
		OverrideCostModel(&s.Plan.CostModel, queryParam)
	}
}

// ---------------------------------------------------------------------------
// Error envelope

// Error codes used by the v1 surface. Codes are stable machine-readable
// classifications; messages are human-readable detail.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnprocessable    = "unprocessable"
	CodeConflict         = "conflict"
	CodeCapacity         = "capacity"
	CodeTimeout          = "timeout"
	CodeInternal         = "internal"
)

// CodeForStatus maps an HTTP status to its v1 error code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusConflict:
		return CodeConflict
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return CodeCapacity
	case http.StatusGatewayTimeout, http.StatusRequestTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// Error is the body of every non-2xx v1 response:
//
//	{"error": {"code": "bad_request", "message": "...", "request_id": "..."}}
//
// RequestID echoes the X-Request-Id the response also carries, so a client
// log line alone is enough to find the matching server trace.
type Error struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorResponse is the envelope wrapping Error.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// ---------------------------------------------------------------------------
// Request decoding

// DecodeJSON decodes a v1 JSON request body into dst with the surface's
// shared conventions: a hard size cap and unknown-field rejection (typoed
// spec fields fail loudly instead of silently meaning "default").
func DecodeJSON(w http.ResponseWriter, body io.ReadCloser, limit int64, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
