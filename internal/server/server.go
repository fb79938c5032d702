// Package server is the network serving subsystem: an HTTP/JSON facade over
// the blitzsplit Engine with request coalescing, admission control, and
// graceful drain.
//
// Three mechanisms keep it standing under heavy traffic:
//
//   - Coalescing: concurrent identical queries singleflight on the engine's
//     plan-cache key (Engine.PlanKey: the canonical fingerprint plus the
//     options that change which plan wins). One leader pays the cold
//     optimization; every follower waits for it and is then served from the
//     plan cache in microseconds — N callers, one 3^n search.
//
//   - Admission control: cold optimizations pass through a bounded in-flight
//     semaphore, and every request carries a memory budget tied to the
//     engine's table arena. As occupancy rises the effective deadline
//     shrinks, which — mapped onto WithDeadlineLadder — degrades responses
//     through cheaper rungs (IDP → greedy) before the server finally sheds
//     load with 503. A degraded-but-fast plan beats a refusal: even
//     cardinality-free plans are usually serviceable.
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
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/spec"
	"blitzsplit/internal/telemetry"
)

// HeaderFingerprint carries the query's canonical fingerprint (hex) on every
// /v1/optimize response: the fingerprint inside the engine's plan-cache key,
// which coalescing and the cluster ring also key on. Two requests with the
// same value are the same query shape under relabeling and, under the same
// options, are guaranteed the same plan.
const HeaderFingerprint = "X-Blitz-Fingerprint"

// Defaults applied by New for zero-valued Config fields, and the request-body
// bound every POST endpoint enforces.
const (
	DefaultMaxInFlight    = 0 // sentinel: 2 × GOMAXPROCS
	DefaultAdmissionWait  = 100 * time.Millisecond
	DefaultRequestTimeout = 2 * time.Second
	DefaultMaxTimeout     = 30 * time.Second
	DefaultMaxBody        = 1 << 20 // 1 MiB of request JSON; larger bodies get 413
	DefaultMaxSynthRows   = 4 << 20 // ~4M base rows synthesized per /v1/execute
)

// Config parameterizes New. The zero value serves with sane production
// defaults: a caching engine, 2×GOMAXPROCS in-flight optimizations, 2 s
// default deadlines, and a memory gate at the engine's arena budget.
type Config struct {
	// EngineOptions configures the engine New constructs. Its plan cache is
	// what makes coalesced followers cheap, and its keys are the request
	// identity: with the cache disabled nothing coalesces and responses carry
	// no fingerprint.
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

	// NodeID and Peers turn on fingerprint-sharded cluster serving: Peers is
	// the full static membership (including this node), NodeID names which
	// member this server is. Every query shape has one home shard on the
	// consistent-hash ring over canonical fingerprints; non-owners forward to
	// the owner (one hop max), so coalescing and cache residency are
	// cluster-wide. Leave NodeID empty for single-node serving.
	NodeID string
	Peers  []cluster.Node
}

// Server serves join-order optimization over HTTP. Construct with New; all
// methods and the handler are safe for concurrent use.
type Server struct {
	eng      *blitzsplit.Engine
	cfg      Config
	inflight chan struct{}
	flights  flightGroup
	draining atomic.Bool
	met      *metrics
	// cluster is non-nil when Config.NodeID/Peers enabled sharded serving;
	// see cluster.go.
	cluster *clusterState
	// handlerPanics counts panics recovered at the HTTP handler boundary
	// (the engine recovers its own; this is everything outside it). snapStop
	// and snapDone manage the periodic snapshot loop.
	handlerPanics atomic.Uint64
	snapMu        sync.Mutex
	snapStop      chan struct{}
	snapDone      chan struct{}
}

// New returns a server over a fresh engine built from cfg.EngineOptions.
func New(cfg Config) *Server {
	eng := blitzsplit.New(cfg.EngineOptions)
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
		cfg.MemBudget = eng.Stats().Arena.Capacity
	}
	if cfg.MaxSynthRows <= 0 {
		cfg.MaxSynthRows = DefaultMaxSynthRows
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	s.flights.init()
	s.met = newMetrics(telemetry.NewRegistry(), s)
	if cfg.NodeID != "" && len(cfg.Peers) > 0 {
		s.cluster = newClusterState(s, cfg)
	}
	return s
}

// Engine returns the engine behind the server.
func (s *Server) Engine() *blitzsplit.Engine { return s.eng }

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
	mux.HandleFunc("/v1/optimize", s.post(s.handleOptimize))
	mux.HandleFunc("/v1/optimize/batch", s.post(s.handleBatch))
	mux.HandleFunc("/v1/execute", s.post(s.handleExecute))
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
	// "idp", "greedy"); anything but exhaustive means a budget or server
	// overload degraded the response.
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

// writeJSON encodes v and only then writes the status and body, so a value
// encoding/json refuses (a non-finite float) is answered 500 with a JSON
// error instead of a status already sent over an empty body. It returns the
// status written.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) int {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: fmt.Sprintf("encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	return code
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.failKind(w, code, "", format, args...)
}

func (s *Server) failKind(w http.ResponseWriter, code int, kind, format string, args ...any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.met.requests(s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind})).Inc()
}

func (s *Server) failServe(w http.ResponseWriter, e *serveErr) {
	s.failKind(w, e.code, e.kind, "%s", e.msg)
}

// post wraps a POST endpoint in the boundary the optimize, batch and execute
// endpoints share: the latency observation, the panic boundary, the request
// fault point, the method check and the drain refusal. A panic anywhere in
// the endpoint is recovered here and answered with 500: one request fails,
// the process keeps serving. (The engine recovers its own optimizer panics
// and returns *InternalError; this boundary catches everything outside it.)
// h receives the request's start time.
func (s *Server) post(h func(http.ResponseWriter, *http.Request, time.Time)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { s.met.latency.Observe(time.Since(start)) }()
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
		h(w, r, start)
	}
}

// handleOptimize is the serving spine: decode → validate → identify → route
// → coalesce → admit → optimize (deadline-laddered) → respond.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request, start time.Time) {
	req, code, err := s.decodeRequest(r)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	c, err := s.resolve(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Cluster routing: a shape owned by a peer is forwarded to its home
	// shard (one hop), unless a warm local copy can serve it here. routed
	// true means the peer's response has been relayed; pushTo non-nil means
	// the owner was unreachable — serve locally, then push the plan home.
	var pushTo *cluster.Node
	if s.cluster != nil {
		var routed bool
		if routed, pushTo = s.routeOptimize(w, r, c); routed {
			return
		}
	}

	resp, serr := s.optimizeLocal(r.Context(), c, start)
	if serr != nil {
		s.failServe(w, serr)
		return
	}
	if pushTo != nil && !resp.Degraded {
		s.asyncPushPlan(*pushTo, c.key)
	}
	if resp.Fingerprint != "" {
		w.Header().Set(HeaderFingerprint, resp.Fingerprint)
	}
	s.met.requests(s.writeJSON(w, http.StatusOK, resp)).Inc()
}

// call is one optimize request resolved for serving: the facade query, the
// options it runs under, and its identity from a single Engine.PlanKey call.
// The plan-cache key coalesces and names the cache entry in routing and
// peer fills; the canonical fingerprint inside it is the response's
// fingerprint and the request's position on the cluster ring. Both are nil
// when PlanKey failed: the call then runs uncoalesced and Engine.Optimize
// reports the error.
type call struct {
	req     *OptimizeRequest
	q       *blitzsplit.Query
	options []blitzsplit.Option
	key, fp []byte
}

// resolve builds a validated request's query and options and computes its
// identity.
func (s *Server) resolve(req *OptimizeRequest) (*call, error) {
	q, err := buildQuery(req)
	if err != nil {
		return nil, err
	}
	c := &call{req: req, q: q, options: s.serveOptions(req)}
	// A PlanKey error leaves key and fp nil; Optimize reports it.
	c.key, c.fp, _ = s.eng.PlanKey(q, c.options...)
	return c, nil
}

// buildQuery turns a validated request into the facade query every engine
// call takes; the query memoizes its one core-query build, so PlanKey and
// Optimize share it. Validation already ran in decodeRequest; all errors
// here are 400s.
func buildQuery(req *OptimizeRequest) (*blitzsplit.Query, error) {
	q := blitzsplit.NewQuery()
	for _, rel := range req.Relations {
		if err := q.AddRelation(rel.Name, rel.Cardinality); err != nil {
			return nil, err
		}
	}
	for _, j := range req.Joins {
		if err := q.Join(j.A, j.B, j.Selectivity); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// serveOptions is the option set every served optimization and execution
// runs under (plus its deadline); the request's identity derives from it.
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

// classify maps an engine error to the status and kind that optimize, batch
// and execute all answer it with, counting recovered panics and row-limit
// refusals.
func (s *Server) classify(err error) *serveErr {
	var ie *blitzsplit.InternalError
	if errors.As(err, &ie) {
		// An optimizer or executor panic the engine recovered: the request
		// fails 500, the counter feeds the chaos harness and alerting.
		s.met.panics.Inc()
	}
	e := &serveErr{code: http.StatusInternalServerError, msg: err.Error()}
	switch {
	case errors.Is(err, blitzsplit.ErrRowLimit):
		// The data outgrew the execution guard: a property of the request,
		// typed so clients can raise max_rows deliberately.
		e.code, e.kind = http.StatusUnprocessableEntity, "row_limit"
		s.met.execRowLimit.Inc()
	case errors.Is(err, core.ErrNoPlan):
		// No plan fits inside the float32 overflow limit: the query is
		// well-formed but unanswerable as posed.
		e.code = http.StatusUnprocessableEntity
	case errors.Is(err, blitzsplit.ErrEnumeratorUnsupported):
		// The server was pinned to the CCP enumerator and this query's graph
		// is outside its plan space — a property of the request, not a
		// server fault.
		e.code = http.StatusUnprocessableEntity
	case errors.Is(err, blitzsplit.ErrQuarantined):
		// The shape has crashed the optimizer repeatedly and the engine
		// refuses to run it again: a property of the request, answered 422
		// so clients stop resubmitting it.
		e.code = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrBudgetExceeded):
		// Only explicit cancellation reaches here — the ladder absorbs
		// deadlines — so the client is gone; the code is a formality.
		e.code = http.StatusServiceUnavailable
	}
	return e
}

// optimizeLocal runs the local serving spine for one resolved request:
// coalesce → admit → optimize (deadline-laddered) → classify. It increments
// the optimization/coalescing/shedding/degradation metrics but never writes
// a response and never counts blitzd_requests_total — callers do both.
func (s *Server) optimizeLocal(ctx context.Context, c *call, start time.Time) (OptimizeResponse, *serveErr) {
	// Occupancy is sampled before this request takes its own slot: it is the
	// load the request *adds to*, and it decides how much deadline the
	// request deserves under pressure.
	timeout := s.effectiveTimeout(c.req, len(s.inflight))

	// Coalesce on the plan-cache key before admission: a follower's expected
	// cost is one cache hit, so it neither occupies a slot nor counts as an
	// optimization.
	coalesced := false
	if c.key != nil {
		key := string(c.key)
		leader, wait := s.flights.join(key)
		if leader {
			defer s.flights.leave(key)
		} else {
			coalesced = true
			s.met.coalesced.Inc()
			select {
			case <-wait:
				// Leader finished; the cache now (normally) holds the plan.
			case <-ctx.Done():
				return OptimizeResponse{}, &serveErr{code: http.StatusServiceUnavailable,
					msg: "client went away while coalesced"}
			}
		}
	}
	if !coalesced {
		// Leaders, and requests without a key, run a real optimization and
		// must pass admission.
		if serr := s.admit(ctx); serr != nil {
			return OptimizeResponse{}, serr
		}
		defer func() { <-s.inflight }()
	}

	// Map the (possibly overload-shrunk) deadline onto the ladder: less
	// time, cheaper rung, answer anyway.
	res, err := s.eng.Optimize(ctx, c.q, append(c.options, blitzsplit.WithTimeout(timeout))...)
	if err != nil {
		return OptimizeResponse{}, s.classify(err)
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
		ElapsedUS:   time.Since(start).Microseconds(),
		Fingerprint: hex.EncodeToString(c.fp),
	}
	if c.req.IncludePlan {
		resp.Plan = res.Plan
	}
	return resp, nil
}

// decodeRequest reads and validates the request body, classifying failures:
// malformed or invalid JSON → 400, structurally valid but oversized → 422.
func (s *Server) decodeRequest(r *http.Request) (*OptimizeRequest, int, error) {
	var req OptimizeRequest
	if code, err := readJSON(r, &req); err != nil {
		return nil, code, err
	}
	if code, err := s.validateRequest(&req); err != nil {
		return nil, code, err
	}
	return &req, 0, nil
}

// bufPool recycles the buffers request bodies are read into and responses
// are encoded into. Nothing decoded aliases a buffer, and putBuffer leaves a
// buffer grown past maxPooledBuffer to the collector rather than pinning it.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 64 << 10

func getBuffer() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		bufPool.Put(buf)
	}
}

// readJSON reads a body of at most DefaultMaxBody bytes (413 beyond) and
// decodes it into v (400 when it is not valid JSON). Plain optimize and
// execute bodies take decodePlain; every other body, and every other target,
// goes to encoding/json.
func readJSON(r *http.Request, v any) (int, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, DefaultMaxBody+1)); err != nil {
		return http.StatusBadRequest, err
	}
	body := buf.Bytes()
	if len(body) > DefaultMaxBody {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", DefaultMaxBody)
	}
	if decodePlain(body, v) {
		return 0, nil
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

// admit takes an in-flight slot for one real optimization and counts it,
// waiting up to AdmissionWait (bounded also by the client's context). A
// request that gets no slot is shed: the returned error is its 503. The
// caller releases an admitted slot with <-s.inflight.
func (s *Server) admit(ctx context.Context) *serveErr {
	select {
	case s.inflight <- struct{}{}:
		s.met.optimizations.Inc()
		return nil
	default:
	}
	t := time.NewTimer(s.cfg.AdmissionWait)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		s.met.optimizations.Inc()
		return nil
	case <-t.C:
	case <-ctx.Done():
	}
	s.met.shed.Inc()
	return &serveErr{code: http.StatusServiceUnavailable,
		msg: fmt.Sprintf("over capacity: %d optimizations in flight", s.cfg.MaxInFlight)}
}

// effectiveTimeout maps the requested deadline through the overload ladder:
// as in-flight occupancy (used, sampled before this request's own slot)
// rises, the deadline shrinks by powers of two, so the degradation ladder
// lands on cheaper rungs (IDP → greedy) while the server still
// answers every admitted request.
func (s *Server) effectiveTimeout(req *OptimizeRequest, used int) time.Duration {
	d := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		// Cap in milliseconds, before converting: from about 9.2e12 ms up,
		// the product overflows time.Duration and wraps below the cap.
		d = s.cfg.MaxTimeout
		if req.TimeoutMS < d.Milliseconds() {
			d = time.Duration(req.TimeoutMS) * time.Millisecond
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
	_ = s.met.reg.WriteProm(w)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.met.reg.WriteJSON(w)
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
