package server

import (
	"fmt"
	"net/http"
	"time"

	"blitzsplit"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/plan"
)

// ExecuteRequest is the POST /v1/execute body: the optimize request plus
// execution controls. The server synthesizes an in-memory database from the
// relation cardinalities and join selectivities (deterministically from
// seed), optimizes the query, and runs the winning plan on the vectorized
// columnar engine — so one request answers "how many rows does this query
// actually produce", not just "what plan would you pick".
type ExecuteRequest struct {
	OptimizeRequest
	// Seed drives the deterministic data synthesis; the same document and
	// seed always produce the same rows.
	Seed int64 `json:"seed,omitempty"`
	// Algorithm selects the physical join operator: "hash" (default),
	// "sortmerge", or "nestedloops".
	Algorithm string `json:"algorithm,omitempty"`
	// Adaptive enables mid-query re-optimization on cardinality
	// misestimates; see blitzsplit.ExecuteOptions.
	Adaptive bool `json:"adaptive,omitempty"`
	// MaxRows aborts execution once an intermediate result exceeds it
	// (answered 422, kind "row_limit"); 0 takes the engine default.
	MaxRows int `json:"max_rows,omitempty"`
	// CollectOps includes the per-operator breakdown in the response.
	CollectOps bool `json:"collect_ops,omitempty"`
}

// ExecuteResponse is the POST /v1/execute success body: the optimization
// summary plus what actually happened when the plan ran.
type ExecuteResponse struct {
	// Rows is the actual result cardinality; Cardinality remains the
	// optimizer's estimate of the same number.
	Rows        int64   `json:"rows"`
	Expression  string  `json:"expression"`
	Cost        float64 `json:"cost"`
	Cardinality float64 `json:"cardinality"`
	Mode        string  `json:"mode"`
	Degraded    bool    `json:"degraded"`
	Cached      bool    `json:"cached"`
	// Exec instruments the execution; Reopts lists adaptive replan events;
	// Downranked reports that a replan demoted the serving cache entry.
	Exec       blitzsplit.ExecStats    `json:"exec"`
	Reopts     []blitzsplit.ReoptEvent `json:"reopts,omitempty"`
	Downranked bool                    `json:"downranked,omitempty"`
	ElapsedUS  int64                   `json:"elapsed_us"`
	// Plan is the optimizer's tree, ExecutedPlan the tree that actually ran
	// (different only after an adaptive replan); both need include_plan.
	Plan         *plan.Node `json:"plan,omitempty"`
	ExecutedPlan *plan.Node `json:"executed_plan,omitempty"`
}

// handleExecute is the execute spine: decode → validate → admit →
// synthesize → optimize-and-execute → respond. Execution requests never
// coalesce — each synthesizes and runs its own data — but they pass the same
// admission gate as cold optimizations, run under the same options as
// /v1/optimize, and the plan cache still dedupes the optimization underneath.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request, start time.Time) {
	req, code, err := s.decodeExecute(r)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	// Synthesis admission: the request's data volume is the sum of its base
	// cardinalities, known before any work. Refusing here keeps one giant
	// document from tying the server up materializing tables.
	var synthRows float64
	for _, rel := range req.Relations {
		synthRows += rel.Cardinality
	}
	if synthRows > s.cfg.MaxSynthRows {
		s.failKind(w, http.StatusUnprocessableEntity, "synthesis_limit",
			"query synthesizes %.0f base rows, server limit is %.0f", synthRows, s.cfg.MaxSynthRows)
		return
	}
	q, err := buildQuery(&req.OptimizeRequest)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := s.effectiveTimeout(&req.OptimizeRequest, len(s.inflight))
	if serr := s.admit(r.Context()); serr != nil {
		s.failServe(w, serr)
		return
	}
	defer func() { <-s.inflight }()

	db, err := q.Synthesize(req.Seed)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "synthesize: %v", err)
		return
	}
	options := append(s.serveOptions(&req.OptimizeRequest), blitzsplit.WithTimeout(timeout))
	er, err := s.eng.OptimizeAndExecute(r.Context(), q, db, blitzsplit.ExecuteOptions{
		Algorithm:  req.Algorithm,
		Adaptive:   req.Adaptive,
		MaxRows:    req.MaxRows,
		CollectOps: req.CollectOps,
	}, options...)
	if err != nil {
		s.failServe(w, s.classify(err))
		return
	}
	if er.Degraded {
		s.met.degraded(er.Mode).Inc()
	}
	s.met.executions.Inc()
	s.met.execRows.Add(uint64(er.Rows))
	s.met.execReopts.Add(uint64(len(er.Reopts)))

	resp := ExecuteResponse{
		Rows:        er.Rows,
		Expression:  er.Expression(),
		Cost:        er.Cost,
		Cardinality: er.Cardinality,
		Mode:        er.Mode,
		Degraded:    er.Degraded,
		Cached:      er.Cached,
		Exec:        er.Exec,
		Reopts:      er.Reopts,
		Downranked:  er.Downranked,
		ElapsedUS:   time.Since(start).Microseconds(),
	}
	if req.IncludePlan {
		resp.Plan = er.Plan
		resp.ExecutedPlan = er.ExecutedPlan
	}
	s.met.requests(s.writeJSON(w, http.StatusOK, resp)).Inc()
}

// decodeExecute mirrors decodeRequest for the execute body: the same body
// limit and the shared validateRequest checks, plus the execution-only ones
// (join algorithm name, max_rows sign).
func (s *Server) decodeExecute(r *http.Request) (*ExecuteRequest, int, error) {
	var req ExecuteRequest
	if code, err := readJSON(r, &req); err != nil {
		return nil, code, err
	}
	if code, err := s.validateRequest(&req.OptimizeRequest); err != nil {
		return nil, code, err
	}
	if _, err := engine.ParseAlgorithm(req.Algorithm); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.MaxRows < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("max_rows must be ≥ 0")
	}
	return &req, 0, nil
}
