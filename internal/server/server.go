// Package server is the network serving subsystem: an HTTP/JSON facade over
// the blitzsplit Engine with request coalescing, admission control, and
// graceful drain.
//
// Three mechanisms keep it standing under heavy traffic:
//
//   - Coalescing: concurrent identical queries singleflight on the canonical
//     fingerprint (internal/canon). One leader pays the cold optimization;
//     every follower waits for it and is then served from the plan cache in
//     microseconds — N callers, one 3^n search.
//
//   - Admission control: cold optimizations pass through a bounded in-flight
//     semaphore, and every request carries a memory budget tied to the
//     engine's table arena. As occupancy rises the effective deadline
//     shrinks, which — mapped onto WithDeadlineLadder — degrades responses
//     through cheaper rungs (threshold → IDP → greedy) before the server
//     finally sheds load with 503. A degraded-but-fast plan beats a refusal:
//     even cardinality-free plans are usually serviceable.
//
//   - Drain: BeginDrain flips /readyz to 503 so load balancers stop routing
//     here, while in-flight requests run to completion; cmd/blitzd wires it
//     to SIGTERM ahead of http.Server.Shutdown.
//
// Endpoints: POST /v1/optimize, POST /v1/execute (optimize, synthesize, and
// run the plan on the vectorized engine — see execute.go), GET /metrics
// (Prometheus text exposition), GET /debug/vars (JSON), GET /healthz
// (liveness), GET /readyz (readiness).
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/canon"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/spec"
	"blitzsplit/internal/telemetry"
)

// HeaderFingerprint carries the query's canonical fingerprint (hex) on every
// /v1/optimize response: the exact identity the plan cache, coalescing, and
// the cluster ring all key on. Two requests with the same value are the same
// query shape under relabeling and are guaranteed the same plan.
const HeaderFingerprint = "X-Blitz-Fingerprint"

// Defaults applied by New for zero-valued Config fields.
const (
	DefaultMaxInFlight    = 0 // sentinel: 2 × GOMAXPROCS
	DefaultAdmissionWait  = 100 * time.Millisecond
	DefaultRequestTimeout = 2 * time.Second
	DefaultMaxTimeout     = 30 * time.Second
	DefaultMaxBody        = 1 << 20 // 1 MiB of request JSON
	DefaultMaxSynthRows   = 4 << 20 // ~4M base rows synthesized per /v1/execute
)

// Config parameterizes New. The zero value serves with sane production
// defaults: a caching engine, 2×GOMAXPROCS in-flight optimizations, 2 s
// default deadlines, and a memory gate at the engine's arena budget.
type Config struct {
	// Engine is the optimizer behind the server. Nil constructs a caching
	// engine from EngineOptions (the plan cache is what makes coalesced
	// followers cheap, so serving without one is only for tests).
	Engine *blitzsplit.Engine
	// EngineOptions configures the engine New constructs when Engine is nil.
	EngineOptions blitzsplit.EngineOptions
	// MaxInFlight bounds concurrently admitted optimizations; 0 selects
	// 2 × GOMAXPROCS. Coalesced followers do not take a slot: their expected
	// cost is a cache hit, and charging them would let one popular query
	// shape starve the whole server.
	MaxInFlight int
	// AdmissionWait is how long a request may wait for an in-flight slot
	// before the server sheds it with 503; 0 selects 100 ms.
	AdmissionWait time.Duration
	// RequestTimeout is the per-request optimization deadline when the
	// client does not send timeout_ms; 0 selects 2 s.
	RequestTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 selects 30 s.
	MaxTimeout time.Duration
	// MaxRelations rejects larger queries with 422 before any work; 0
	// selects bitset.MaxRelations (the representation's hard limit, 30).
	MaxRelations int
	// Enumerator selects the exact fill strategy for every request
	// (WithEnumerator): the zero value is the paper's 3^n blitz scan,
	// EnumeratorAuto picks the csg–cmp fill on connected join graphs. An
	// explicit EnumeratorCCP makes requests with disconnected graphs fail
	// with 422 (no Cartesian-product-free plan space exists for them).
	Enumerator blitzsplit.Enumerator
	// MemBudget is the per-request DP-table byte budget (WithMemoryBudget).
	// 0 ties it to the engine arena's byte budget — a table the arena could
	// never pool should not be admitted either. The deadline ladder turns a
	// refusal into an IDP or greedy plan instead of an error.
	MemBudget uint64
	// MaxBody bounds the request body; 0 selects 1 MiB.
	MaxBody int64
	// MaxSynthRows bounds the total base-table rows a /v1/execute request may
	// synthesize (the sum of relation cardinalities); larger requests are
	// refused with 422 before any work. 0 selects DefaultMaxSynthRows.
	MaxSynthRows float64
	// SnapshotPath, when non-empty, is the plan-cache snapshot file behind
	// warm restarts: RestoreSnapshot reads it at startup, SnapshotNow and the
	// periodic loop write it atomically (temp + fsync + rename).
	SnapshotPath string
	// SnapshotInterval is the period of the background snapshot loop started
	// by StartSnapshots; 0 selects DefaultSnapshotInterval. Ignored when
	// SnapshotPath is empty.
	SnapshotInterval time.Duration
	// Registry receives the server's metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Now overrides the clock for tests; nil selects time.Now.
	Now func() time.Time

	// NodeID and Peers turn on fingerprint-sharded cluster serving: Peers is
	// the full static membership (including this node), NodeID names which
	// member this server is. Every query shape has one home shard on the
	// consistent-hash ring over canonical fingerprints; non-owners forward to
	// the owner (one hop max), so coalescing and cache residency are
	// cluster-wide. Leave NodeID empty for single-node serving.
	NodeID string
	Peers  []cluster.Node
	// VirtualNodes is the ring's per-node point count; 0 selects
	// cluster.DefaultVirtualNodes.
	VirtualNodes int
}

// Server serves join-order optimization over HTTP. Construct with New; all
// methods and the handler are safe for concurrent use.
type Server struct {
	eng      *blitzsplit.Engine
	quantum  float64
	cfg      Config
	inflight chan struct{}
	flights  flightGroup
	draining atomic.Bool
	met      *metrics
	// cluster is non-nil when Config.NodeID/Peers enabled sharded serving;
	// see cluster.go.
	cluster *clusterState
	// canonPool recycles flightKey's canonicalizer scratch across requests.
	canonPool sync.Pool
	// handlerPanics counts panics recovered at the HTTP handler boundary
	// (the engine recovers its own; this is everything outside it). snapStop
	// and snapDone manage the periodic snapshot loop.
	handlerPanics atomic.Uint64
	snapMu        sync.Mutex
	snapStop      chan struct{}
	snapDone      chan struct{}
}

// New returns a server over cfg.Engine (or a fresh caching engine).
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = blitzsplit.New(cfg.EngineOptions)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.AdmissionWait <= 0 {
		cfg.AdmissionWait = DefaultAdmissionWait
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.MaxRelations <= 0 || cfg.MaxRelations > bitset.MaxRelations {
		cfg.MaxRelations = bitset.MaxRelations
	}
	if cfg.MemBudget == 0 {
		cfg.MemBudget = cfg.Engine.Stats().Arena.Capacity
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.MaxSynthRows <= 0 {
		cfg.MaxSynthRows = DefaultMaxSynthRows
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		eng:      cfg.Engine,
		quantum:  cfg.EngineOptions.SelectivityQuantum,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	s.flights.init()
	s.met = newMetrics(cfg.Registry, s)
	if cfg.NodeID != "" && len(cfg.Peers) > 0 {
		s.cluster = newClusterState(s, cfg)
	}
	return s
}

// Engine returns the engine behind the server.
func (s *Server) Engine() *blitzsplit.Engine { return s.eng }

// Registry returns the telemetry registry the server reports into.
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// BeginDrain flips the server into draining: /readyz answers 503 so load
// balancers stop routing new traffic, and new optimize requests are refused,
// while requests already in flight run to completion. Idempotent. The caller
// (cmd/blitzd) follows up with http.Server.Shutdown, which waits for the
// in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of admitted optimizations currently running.
func (s *Server) InFlight() int { return len(s.inflight) }

// Handler returns the server's route table. The /debug/pprof/ endpoints
// expose the runtime profiler on the same mux as the other debug routes, so
// a production blitzd can be profiled in place:
//
//	go tool pprof http://host/debug/pprof/profile?seconds=30
//	go tool pprof http://host/debug/pprof/heap
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", s.handleOptimize)
	mux.HandleFunc("/v1/optimize/batch", s.handleBatch)
	mux.HandleFunc("/v1/execute", s.handleExecute)
	if s.cluster != nil {
		mux.HandleFunc(cluster.PeerPlanPath, s.handlePeerPlan)
		mux.HandleFunc(cluster.PeerFillPath, s.handlePeerFill)
		mux.HandleFunc(cluster.PeerHandoffPath, s.handlePeerHandoff)
		mux.HandleFunc("/v1/cluster/status", s.handleClusterStatus)
	}
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// OptimizeRequest is the POST /v1/optimize body: a query spec (the same
// relations/joins document the CLI reads) plus serving options.
type OptimizeRequest struct {
	spec.File
	// Model selects the cost model by name; empty means "naive".
	Model string `json:"model,omitempty"`
	// LeftDeep restricts the search to left-deep vines.
	LeftDeep bool `json:"left_deep,omitempty"`
	// TimeoutMS is the requested optimization deadline in milliseconds,
	// capped at the server's MaxTimeout; 0 takes the server default. The
	// server may shrink it further under load — see OptimizeResponse.Mode.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludePlan asks for the full plan tree in the response.
	IncludePlan bool `json:"include_plan,omitempty"`
}

// OptimizeResponse is the POST /v1/optimize success body.
type OptimizeResponse struct {
	Expression  string  `json:"expression"`
	Cost        float64 `json:"cost"`
	Cardinality float64 `json:"cardinality"`
	// Mode is the optimizer rung that produced the plan ("exhaustive",
	// "threshold", "idp", "greedy"); anything but exhaustive means a budget
	// or server overload degraded the response.
	Mode     string `json:"mode"`
	Degraded bool   `json:"degraded"`
	// Cached reports a plan-cache hit; Coalesced reports that this request
	// waited on an identical in-flight optimization instead of running its
	// own (its result then normally comes from the cache the leader filled).
	Cached    bool          `json:"cached"`
	Coalesced bool          `json:"coalesced"`
	Counters  core.Counters `json:"counters"`
	ElapsedUS int64         `json:"elapsed_us"`
	// Fingerprint is the query's canonical fingerprint in hex (also the
	// HeaderFingerprint response header): identical for every relabeling of
	// the same query shape, and the identity the cluster ring shards on.
	Fingerprint string     `json:"fingerprint,omitempty"`
	Plan        *plan.Node `json:"plan,omitempty"`
}

// errorResponse is every non-200 body. Kind, when set, is a stable
// machine-readable classifier ("row_limit", "synthesis_limit") so clients can
// branch without parsing the human-readable message.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.failKind(w, code, "", format, args...)
}

func (s *Server) failKind(w http.ResponseWriter, code int, kind, format string, args ...any) {
	s.met.requests(code).Inc()
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// handleOptimize is the serving spine: decode → validate → coalesce →
// admit → optimize (deadline-laddered) → respond. A panic anywhere in the
// spine is recovered here and answered with 500: one request fails, the
// process keeps serving. (The engine recovers its own optimizer panics and
// returns *InternalError; this boundary catches everything outside it.)
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	defer func() { s.met.latency.Observe(s.cfg.Now().Sub(start)) }()
	defer func() {
		if v := recover(); v != nil {
			s.handlerPanics.Add(1)
			s.met.panics.Inc()
			s.fail(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	faultinject.Inject(faultinject.ServerRequest)

	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		s.met.shed.Inc()
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	req, code, err := s.decodeRequest(r)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	q, cq, err := s.buildQuery(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, fp := s.flightKey(cq, req)
	fpHex := hex.EncodeToString(fp)

	// Cluster routing: a shape owned by a peer is forwarded to its home
	// shard (one hop), unless a warm local copy can serve it here. routed
	// true means the peer's response has been relayed; pushTo non-nil means
	// the owner was unreachable — serve locally, then push the plan home.
	var pushTo *cluster.Node
	var ekey []byte
	if s.cluster != nil {
		var routed bool
		routed, pushTo, ekey = s.routeOptimize(w, r, req, q, fp)
		if routed {
			return
		}
	}

	resp, serr := s.optimizeLocal(r.Context(), req, q, key, start)
	if serr != nil {
		s.failKind(w, serr.code, serr.kind, "%s", serr.msg)
		return
	}
	if pushTo != nil && !resp.Degraded {
		s.asyncPushPlan(*pushTo, ekey)
	}
	resp.Fingerprint = fpHex
	if fpHex != "" {
		w.Header().Set(HeaderFingerprint, fpHex)
	}
	s.met.requests(http.StatusOK).Inc()
	s.writeJSON(w, http.StatusOK, resp)
}

// buildQuery resolves a decoded request into the optimizer representation
// twice over: the core query (for canonicalization/flight keys) and the
// facade query (for the engine call). Validation already ran in
// decodeRequest; all errors here are 400s.
func (s *Server) buildQuery(req *OptimizeRequest) (*blitzsplit.Query, core.Query, error) {
	cq, _, err := req.File.Query()
	if err != nil {
		return nil, core.Query{}, err
	}
	q := blitzsplit.NewQuery()
	for _, rel := range req.Relations {
		if err := q.AddRelation(rel.Name, rel.Cardinality); err != nil {
			return nil, core.Query{}, err
		}
	}
	for _, j := range req.Joins {
		if err := q.Join(j.A, j.B, j.Selectivity); err != nil {
			return nil, core.Query{}, err
		}
	}
	return q, cq, nil
}

// serveOptions is the option set every served optimization runs under; the
// engine cache key derives from it, so routeOptimize passes the identical
// set to PlanKey.
func (s *Server) serveOptions(req *OptimizeRequest) []blitzsplit.Option {
	options := []blitzsplit.Option{
		blitzsplit.WithDeadlineLadder(),
		blitzsplit.WithMemoryBudget(s.cfg.MemBudget),
		blitzsplit.WithEnumerator(s.cfg.Enumerator),
	}
	if req.Model != "" {
		options = append(options, blitzsplit.WithCostModel(req.Model))
	}
	if req.LeftDeep {
		options = append(options, blitzsplit.WithLeftDeep())
	}
	return options
}

// serveErr is a classified serving failure: the HTTP code, the stable
// machine-readable kind (may be empty), and the message. optimizeLocal
// returns it instead of writing, so the single-request handler and the batch
// handler share one spine.
type serveErr struct {
	code int
	kind string
	msg  string
}

// optimizeLocal runs the local serving spine for one decoded request:
// coalesce → admit → optimize (deadline-laddered) → classify. It increments
// the optimization/coalescing/shedding/degradation metrics but never writes
// a response and never counts blitzd_requests_total — callers do both.
func (s *Server) optimizeLocal(ctx context.Context, req *OptimizeRequest, q *blitzsplit.Query, key string, start time.Time) (OptimizeResponse, *serveErr) {
	// Occupancy is sampled before this request takes its own slot: it is the
	// load the request *adds to*, and it decides how much deadline the
	// request deserves under pressure.
	timeout := s.effectiveTimeout(req, len(s.inflight))

	// Coalesce on the canonical fingerprint before admission: a follower's
	// expected cost is one cache hit, so it neither occupies a slot nor
	// counts as an optimization.
	coalesced := false
	if key != "" {
		leader, wait := s.flights.join(key)
		if !leader {
			coalesced = true
			s.met.coalesced.Inc()
			select {
			case <-wait:
				// Leader finished; the cache now (normally) holds the plan.
			case <-ctx.Done():
				return OptimizeResponse{}, &serveErr{code: http.StatusServiceUnavailable,
					msg: "client went away while coalesced"}
			}
		} else {
			defer s.flights.leave(key)
			// Leaders run a real optimization and must pass admission.
			if !s.admit(ctx) {
				s.met.shed.Inc()
				return OptimizeResponse{}, &serveErr{code: http.StatusServiceUnavailable,
					msg: fmt.Sprintf("over capacity: %d optimizations in flight", s.cfg.MaxInFlight)}
			}
			defer func() { <-s.inflight }()
			s.met.optimizations.Inc()
		}
	} else {
		// Uncanonicalizable queries (none today: estimators cannot arrive
		// via JSON) skip coalescing but still pass admission.
		if !s.admit(ctx) {
			s.met.shed.Inc()
			return OptimizeResponse{}, &serveErr{code: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("over capacity: %d optimizations in flight", s.cfg.MaxInFlight)}
		}
		defer func() { <-s.inflight }()
		s.met.optimizations.Inc()
	}

	// Map the (possibly overload-shrunk) deadline onto the ladder: less
	// time, cheaper rung, answer anyway.
	options := append(s.serveOptions(req), blitzsplit.WithTimeout(timeout))

	res, err := s.eng.Optimize(ctx, q, options...)
	if err != nil {
		var ie *blitzsplit.InternalError
		if errors.As(err, &ie) {
			// An optimizer panic the engine recovered: the request fails 500,
			// the counter feeds the chaos harness and alerting.
			s.met.panics.Inc()
		}
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrNoPlan):
			// No plan fits inside the float32 overflow limit: the query is
			// well-formed but unanswerable as posed.
			code = http.StatusUnprocessableEntity
		case errors.Is(err, blitzsplit.ErrEnumeratorUnsupported):
			// The server was pinned to the CCP enumerator and this query's
			// graph is outside its plan space — a property of the request,
			// not a server fault.
			code = http.StatusUnprocessableEntity
		case errors.Is(err, blitzsplit.ErrQuarantined):
			// The shape has crashed the optimizer repeatedly and the engine
			// refuses to run it again: a property of the request, answered
			// 422 so clients stop resubmitting it.
			code = http.StatusUnprocessableEntity
		case errors.Is(err, core.ErrBudgetExceeded):
			// Only explicit cancellation reaches here — the ladder absorbs
			// deadlines — so the client is gone; the code is a formality.
			code = http.StatusServiceUnavailable
		}
		return OptimizeResponse{}, &serveErr{code: code, msg: err.Error()}
	}
	if res.Degraded {
		s.met.degraded(res.Mode).Inc()
	}

	resp := OptimizeResponse{
		Expression:  res.Expression(),
		Cost:        res.Cost,
		Cardinality: res.Cardinality,
		Mode:        res.Mode,
		Degraded:    res.Degraded,
		Cached:      res.Cached,
		Coalesced:   coalesced,
		Counters:    res.Counters,
		ElapsedUS:   s.cfg.Now().Sub(start).Microseconds(),
	}
	if req.IncludePlan {
		resp.Plan = res.Plan
	}
	return resp, nil
}

// decodeRequest reads and validates the request body, classifying failures:
// malformed or invalid JSON → 400, structurally valid but oversized → 422.
func (s *Server) decodeRequest(r *http.Request) (*OptimizeRequest, int, error) {
	var req OptimizeRequest
	if code, err := s.readJSON(r, &req); err != nil {
		return nil, code, err
	}
	if code, err := s.validateRequest(&req); err != nil {
		return nil, code, err
	}
	return &req, 0, nil
}

// readJSON reads a body of at most MaxBody bytes (413 beyond) and decodes it
// into v (400 when it is not valid JSON).
func (s *Server) readJSON(r *http.Request, v any) (int, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		return http.StatusBadRequest, err
	}
	if int64(len(body)) > s.cfg.MaxBody {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBody)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err)
	}
	return 0, nil
}

// validateRequest applies the semantic checks shared by the single-request
// and batch decoders: spec validity (400), server size limits (422), and
// option sanity (400).
func (s *Server) validateRequest(req *OptimizeRequest) (int, error) {
	if err := req.File.Validate(); err != nil {
		return http.StatusBadRequest, err
	}
	if n := len(req.Relations); n > s.cfg.MaxRelations {
		return http.StatusUnprocessableEntity,
			fmt.Errorf("%d relations exceeds the server limit of %d", n, s.cfg.MaxRelations)
	}
	if req.TimeoutMS < 0 {
		return http.StatusBadRequest, fmt.Errorf("timeout_ms must be ≥ 0")
	}
	if req.Model != "" {
		if _, err := cost.ByName(req.Model); err != nil {
			return http.StatusBadRequest, err
		}
	}
	return 0, nil
}

// flightKey derives the coalescing key: the canonical fingerprint extended
// with every request option that changes which plan is produced. Identical
// queries — and isomorphic ones under relabeling — share a key; the
// fingerprint is exact (never a hash), so distinct queries never coalesce.
// The canonicalizer comes from a pool so each request reuses refinement
// scratch instead of re-allocating it. The bare fingerprint is also returned
// (a fresh copy): it is the response's identity field and what the cluster
// ring shards on.
func (s *Server) flightKey(cq core.Query, req *OptimizeRequest) (string, []byte) {
	c, _ := s.canonPool.Get().(*canon.Canonicalizer)
	if c == nil {
		c = new(canon.Canonicalizer)
	}
	if err := c.Canonicalize(cq, canon.Options{SelectivityQuantum: s.quantum}); err != nil {
		s.canonPool.Put(c)
		return "", nil
	}
	key := string(c.Fingerprint()) + "\x00" + req.Model + "\x00" + strconv.FormatBool(req.LeftDeep)
	fp := append([]byte(nil), c.Fingerprint()...)
	s.canonPool.Put(c)
	return key, fp
}

// admit takes an in-flight slot, waiting up to AdmissionWait (bounded also
// by the client's context). False means the request should be shed.
func (s *Server) admit(ctx context.Context) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.AdmissionWait)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// effectiveTimeout maps the requested deadline through the overload ladder:
// as in-flight occupancy (used, sampled before this request's own slot)
// rises, the deadline shrinks by powers of two, so the degradation ladder
// lands on cheaper rungs (threshold → IDP → greedy) while the server still
// answers every admitted request.
func (s *Server) effectiveTimeout(req *OptimizeRequest, used int) time.Duration {
	d := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	d /= overloadDivisor(used, cap(s.inflight))
	if d < time.Millisecond {
		d = time.Millisecond // the greedy floor needs effectively no time
	}
	return d
}

// overloadDivisor converts in-flight occupancy into a deadline divisor:
// 1 below half load, then 2/4/8 at ½, ¾, and 9/10 occupancy.
func overloadDivisor(used, capacity int) time.Duration {
	switch {
	case used*10 >= capacity*9:
		return 8
	case used*4 >= capacity*3:
		return 4
	case used*2 >= capacity:
		return 2
	default:
		return 1
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Registry.WriteProm(w)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Registry.WriteJSON(w)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 200 while accepting traffic, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}
