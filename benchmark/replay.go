package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"blitzsplit"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/plancache"
	"blitzsplit/internal/server"
	"blitzsplit/internal/spec"
)

// outcome is the answer to one request: what the daemon's reply must match.
type outcome struct {
	cost float64
	rows int64
}

// handler replays blitzd's request handling in process: the calls
// internal/server makes for one request, in its order, minus HTTP,
// coalescing and admission (a replay has no concurrent requests to coalesce
// or admit). With an engine it calls Engine.Optimize as the server does;
// without one it runs the engine's steps itself (see mirror), so each step
// gets its own span.
type handler struct {
	eng *blitzsplit.Engine
	mir *mirror
	tr  *tracer
	// canon is the server's flight-key canonicalizer, flightKey the last key
	// it derived, enc the response buffer.
	canon     canon.Canonicalizer
	flightKey string
	enc       bytes.Buffer
	// memBudget is the server's per-request DP-table budget, the engine
	// arena's capacity (the mirror uses the default arena's).
	memBudget uint64
	// Execution statistics of timed requests (engine-step handler only).
	execs, rowsProcessed, intermediateRows, joinNs, execNs, synthRows, synthNs int64
}

// newEngine returns an engine configured like the workload's daemon.
func newEngine(t *traffic) *blitzsplit.Engine {
	return blitzsplit.New(blitzsplit.EngineOptions{CacheBytes: t.cacheBytes})
}

func newEngineHandler(eng *blitzsplit.Engine, tr *tracer) *handler {
	return &handler{eng: eng, tr: tr, memBudget: eng.Stats().Arena.Capacity}
}

func newMirrorHandler(t *traffic, tr *tracer) *handler {
	return &handler{
		mir: &mirror{cache: plancache.New(t.cacheBytes, 0), arena: core.NewArena(0), tr: tr},
		tr:  tr,
	}
}

// cacheState reports the handler's plan-cache evictions and entries.
func (h *handler) cacheState() (evictions, entries float64) {
	var st plancache.Stats
	if h.eng != nil {
		st = h.eng.Stats().Cache
	} else {
		st = h.mir.cache.Snapshot()
	}
	return float64(st.Evictions), float64(st.Entries)
}

// serve handles one request body; req is its index (negative in warm-up).
func (h *handler) serve(endpoint string, body []byte, req int) (outcome, error) {
	root := h.tr.begin(spanRequest, -1, req)
	defer h.tr.end(root)
	if endpoint == executePath {
		return h.execute(body, root, req)
	}
	return h.optimize(body, root, req)
}

// engineOptions are the options every served optimization runs under.
func (h *handler) engineOptions(model string) []blitzsplit.Option {
	opts := []blitzsplit.Option{
		blitzsplit.WithDeadlineLadder(),
		blitzsplit.WithMemoryBudget(h.memBudget),
		blitzsplit.WithEnumerator(blitzsplit.EnumeratorBlitz),
	}
	if model != "" {
		opts = append(opts, blitzsplit.WithCostModel(model))
	}
	return append(opts, blitzsplit.WithTimeout(server.DefaultRequestTimeout))
}

// validate applies the server's request checks: spec validity, relation
// limit, timeout sign and cost model name.
func validate(req *server.OptimizeRequest) error {
	if err := req.File.Validate(); err != nil {
		return err
	}
	if len(req.Relations) > bitset.MaxRelations {
		return fmt.Errorf("%d relations exceeds the server limit", len(req.Relations))
	}
	if req.TimeoutMS < 0 {
		return errors.New("timeout_ms must be ≥ 0")
	}
	if req.Model != "" {
		if _, err := cost.ByName(req.Model); err != nil {
			return err
		}
	}
	return nil
}

// facadeQuery adds the request's relations and joins to a facade query, as
// the server's handlers do.
func facadeQuery(f *spec.File) (*blitzsplit.Query, error) {
	q := blitzsplit.NewQuery()
	for _, rel := range f.Relations {
		if err := q.AddRelation(rel.Name, rel.Cardinality); err != nil {
			return nil, err
		}
	}
	for _, j := range f.Joins {
		if err := q.Join(j.A, j.B, j.Selectivity); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// optimized is an optimization result from the engine or the mirror.
type optimized struct {
	res      *blitzsplit.Result // engine
	plan     *plan.Node         // mirror
	names    []string
	cost     float64
	card     float64
	counters core.Counters
	mode     string
	cached   bool
}

func fromResult(r *blitzsplit.Result) optimized {
	return optimized{res: r, cost: r.Cost, card: r.Cardinality, counters: r.Counters, mode: r.Mode, cached: r.Cached}
}

func (o optimized) expression() string {
	if o.res != nil {
		return o.res.Expression()
	}
	return o.plan.Expression(o.names)
}

func (h *handler) optimize(body []byte, root int32, req int) (outcome, error) {
	s := h.tr.begin(spanDecode, root, req)
	var r server.OptimizeRequest
	err := json.Unmarshal(body, &r)
	h.tr.end(s)
	if err != nil {
		return outcome{}, fmt.Errorf("decode: %w", err)
	}

	s = h.tr.begin(spanValidate, root, req)
	err = validate(&r)
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	s = h.tr.begin(spanSpecQuery, root, req)
	cq, names, err := r.File.Query()
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	s = h.tr.begin(spanQueryBuild, root, req)
	q, err := facadeQuery(&r.File)
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	// The server derives its coalescing key and the response fingerprint
	// here; a replay has nothing to coalesce with, so only the cost remains.
	s = h.tr.begin(spanCanonicalize, root, req)
	err = h.canon.Canonicalize(cq, canon.Options{})
	fp := append([]byte(nil), h.canon.Fingerprint()...)
	h.flightKey = string(fp) + "\x00" + r.Model + "\x00" + strconv.FormatBool(r.LeftDeep)
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	s = h.tr.begin(spanOptimize, root, req)
	var o optimized
	if h.mir != nil {
		o, err = h.mir.optimize(s, req, &r.File, r.Model, names)
	} else {
		var res *blitzsplit.Result
		res, err = h.eng.Optimize(context.Background(), q, h.engineOptions(r.Model)...)
		if err == nil {
			o = fromResult(res)
		}
	}
	h.tr.end(s)
	if err != nil {
		return outcome{}, fmt.Errorf("optimize: %w", err)
	}

	s = h.tr.begin(spanEncode, root, req)
	resp := server.OptimizeResponse{
		Expression:  o.expression(),
		Cost:        o.cost,
		Cardinality: o.card,
		Mode:        o.mode,
		Degraded:    o.mode != blitzsplit.ModeExhaustive,
		Cached:      o.cached,
		Counters:    o.counters,
		Fingerprint: hex.EncodeToString(fp),
	}
	h.enc.Reset()
	err = json.NewEncoder(&h.enc).Encode(resp)
	h.tr.end(s)
	return outcome{cost: o.cost}, err
}

func (h *handler) execute(body []byte, root int32, req int) (outcome, error) {
	s := h.tr.begin(spanDecode, root, req)
	var r server.ExecuteRequest
	err := json.Unmarshal(body, &r)
	h.tr.end(s)
	if err != nil {
		return outcome{}, fmt.Errorf("decode: %w", err)
	}

	s = h.tr.begin(spanValidate, root, req)
	err = validate(&r.OptimizeRequest)
	var synthRows float64
	for _, rel := range r.Relations {
		synthRows += rel.Cardinality
	}
	if err == nil && synthRows > server.DefaultMaxSynthRows {
		err = fmt.Errorf("query synthesizes %.0f base rows", synthRows)
	}
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	s = h.tr.begin(spanQueryBuild, root, req)
	q, err := facadeQuery(&r.File)
	h.tr.end(s)
	if err != nil {
		return outcome{}, err
	}

	var o optimized
	var stats exec.Stats
	var rows int64
	if h.mir == nil {
		s = h.tr.begin(spanSynthesize, root, req)
		db, err := q.Synthesize(r.Seed)
		h.tr.end(s)
		if err != nil {
			return outcome{}, fmt.Errorf("synthesize: %w", err)
		}
		s = h.tr.begin(spanOptimize, root, req)
		er, err := h.eng.OptimizeAndExecute(context.Background(), q, db,
			blitzsplit.ExecuteOptions{Algorithm: r.Algorithm}, h.engineOptions(r.Model)...)
		h.tr.end(s)
		if err != nil {
			return outcome{}, fmt.Errorf("execute: %w", err)
		}
		o, stats, rows = fromResult(er.Result), er.Exec, er.Rows
	} else {
		o, stats, err = h.mirrorExecute(&r, root, req)
		if err != nil {
			return outcome{}, err
		}
		rows = stats.Rows
		stats.Ops = nil // the server's reply carries no per-operator breakdown
	}

	s = h.tr.begin(spanEncode, root, req)
	resp := server.ExecuteResponse{
		Rows:        rows,
		Expression:  o.expression(),
		Cost:        o.cost,
		Cardinality: o.card,
		Mode:        o.mode,
		Degraded:    o.mode != blitzsplit.ModeExhaustive,
		Cached:      o.cached,
		Exec:        stats,
	}
	h.enc.Reset()
	err = json.NewEncoder(&h.enc).Encode(resp)
	h.tr.end(s)
	return outcome{cost: o.cost, rows: rows}, err
}

// mirrorExecute is OptimizeAndExecute's work done step by step: the core
// query build and engine.Synthesize behind Query.Synthesize, then the
// engine's optimize steps, its second canonicalization for the execution
// key, and exec.Run with per-operator statistics.
func (h *handler) mirrorExecute(r *server.ExecuteRequest, root int32, req int) (optimized, exec.Stats, error) {
	s := h.tr.begin(spanRebuild, root, req)
	cq, names, err := coreQuery(&r.File)
	h.tr.end(s)
	if err != nil {
		return optimized{}, exec.Stats{}, err
	}
	s = h.tr.begin(spanSynth, root, req)
	db, err := engine.Synthesize(cq.Cards, cq.Graph, r.Seed)
	h.tr.end(s)
	if err != nil {
		return optimized{}, exec.Stats{}, fmt.Errorf("synthesize: %w", err)
	}
	synthNs := h.tr.duration(s)

	s = h.tr.begin(spanOptimize, root, req)
	o, err := h.mir.optimizeQuery(s, req, cq, r.Model, names)
	if err == nil {
		c := h.tr.begin(spanCanonicalize, s, req)
		err = h.mir.canon.Canonicalize(cq, canon.Options{})
		h.mir.key = appendCacheKey(h.mir.key[:0], h.mir.canon.Fingerprint(), h.mir.model)
		h.tr.end(c)
	}
	var out *exec.Result
	if err == nil {
		c := h.tr.begin(spanExecRun, s, req)
		out, err = exec.Run(db, o.plan, exec.Options{Algorithm: engine.AlgorithmByName(r.Algorithm), CollectOps: true})
		h.tr.end(c)
		if err == nil && req >= 0 {
			h.recordExec(out.Stats, h.tr.duration(c), cq.Cards, synthNs)
		}
	}
	h.tr.end(s)
	if err != nil {
		return optimized{}, exec.Stats{}, fmt.Errorf("execute: %w", err)
	}
	return o, out.Stats, nil
}

// recordExec accumulates one timed execution's statistics.
func (h *handler) recordExec(st exec.Stats, runNs int64, cards []float64, synthNs int64) {
	h.execs++
	h.execNs += runNs
	h.intermediateRows += st.IntermediateRows
	for _, op := range st.Ops {
		h.rowsProcessed += op.Rows
		if op.Kind != "scan" {
			h.joinNs += op.Nanos
		}
	}
	for _, c := range cards {
		h.synthRows += int64(math.Round(c))
	}
	h.synthNs += synthNs
}

// duration returns span id's length; 0 on a nil tracer.
func (t *tracer) duration(id int32) int64 {
	if t == nil {
		return 0
	}
	return t.spans[id].end - t.spans[id].start
}

// mirror runs Engine.Optimize's steps one call at a time, against its own
// plan cache and table arena sized like the daemon's: rebuild the core query
// from the facade's inputs, canonicalize, probe the cache, and on a miss fill
// the DP table for the canonical query and store it; then relabel the plan to
// the caller's numbering. Its answers must equal the engine's bit for bit.
type mirror struct {
	cache *plancache.Cache
	arena *core.Arena
	tr    *tracer
	canon canon.Canonicalizer
	key   []byte
	model cost.Model
}

// optimize is the /v1/optimize path: rebuild, then the optimize steps.
func (m *mirror) optimize(parent int32, req int, f *spec.File, model string, names []string) (optimized, error) {
	s := m.tr.begin(spanRebuild, parent, req)
	cq, _, err := coreQuery(f)
	m.tr.end(s)
	if err != nil {
		return optimized{}, err
	}
	return m.optimizeQuery(parent, req, cq, model, names)
}

func (m *mirror) optimizeQuery(parent int32, req int, cq core.Query, model string, names []string) (optimized, error) {
	m.model = nil
	if model != "" {
		cm, err := cost.ByName(model)
		if err != nil {
			return optimized{}, err
		}
		m.model = cm
	}
	s := m.tr.begin(spanCanonicalize, parent, req)
	err := m.canon.Canonicalize(cq, canon.Options{})
	m.key = appendCacheKey(m.key[:0], m.canon.Fingerprint(), m.model)
	m.tr.end(s)
	if err != nil {
		return optimized{}, err
	}

	s = m.tr.begin(spanProbe, parent, req)
	ent, hit := m.cache.GetBytes(m.key)
	m.tr.end(s)
	if hit {
		s = m.tr.begin(spanRelabel, parent, req)
		p := canon.RelabelPlan(ent.Plan, m.canon.ToOrig())
		m.tr.end(s)
		return optimized{plan: p, names: names, cost: ent.Cost, card: ent.Cardinality,
			counters: ent.Counters, mode: blitzsplit.ModeExhaustive, cached: true}, nil
	}

	key := string(m.key)
	cn := m.canon.Canonical()
	canonical := cn.Query()
	s = m.tr.begin(spanFill, parent, req)
	res, err := m.fill(canonical)
	m.tr.end(s)
	if err != nil {
		return optimized{}, err
	}
	name := model
	if name == "" {
		name = cost.Naive{}.Name()
	}
	m.tr.fill(s, name, res.Counters)

	s = m.tr.begin(spanPut, parent, req)
	m.cache.Put(key, plancache.Entry{Plan: res.Plan, Cost: res.Cost, Cardinality: res.Cardinality, Counters: res.Counters})
	m.tr.end(s)

	s = m.tr.begin(spanRelabel, parent, req)
	p := canon.RelabelPlan(res.Plan, cn.ToOrig)
	m.tr.end(s)
	return optimized{plan: p, names: names, cost: res.Cost, card: res.Cardinality,
		counters: res.Counters, mode: blitzsplit.ModeExhaustive}, nil
}

// fill is the ladder's first rung: the exhaustive search under half the
// request's deadline, drawing its table from the arena.
func (m *mirror) fill(cq core.Query) (*core.Result, error) {
	deadline := time.Now().Add(server.DefaultRequestTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	rctx, rcancel := context.WithDeadline(ctx, time.Now().Add(time.Until(deadline)/2))
	defer rcancel()
	return core.Optimize(cq, core.Options{
		Model:        m.model,
		Ctx:          rctx,
		MemoryBudget: core.DefaultArenaBytes,
		DiscardTable: true,
		Arena:        m.arena,
	})
}

// appendCacheKey lays out a cache key the way the engine does for the
// serve path's options (bushy, blitz enumerator, default overflow limit), so
// keys hash and size like the daemon's.
func appendCacheKey(dst, fp []byte, model cost.Model) []byte {
	b := binary.AppendUvarint(dst, uint64(len(fp)))
	b = append(b, fp...)
	b = append(b, 0, 'B', 'X')
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.MaxFloat32))
	if model == nil {
		return append(b, "naive"...)
	}
	return fmt.Appendf(b, "%T|%+v", model, model)
}

// coreQuery builds the core query from the request the way the facade's
// query builds it from the relations and joins added to it: cardinalities in
// insertion order, one edge per relation pair with its selectivities folded.
func coreQuery(f *spec.File) (core.Query, []string, error) {
	n := len(f.Relations)
	index := make(map[string]int, n)
	names := make([]string, n)
	cards := make([]float64, n)
	for i, rel := range f.Relations {
		index[rel.Name] = i
		names[i] = rel.Name
		cards[i] = rel.Cardinality
	}
	if len(f.Joins) == 0 {
		return core.Query{Cards: cards}, names, nil
	}
	type pair struct{ a, b int }
	groups := make(map[pair][]float64, len(f.Joins))
	var order []pair
	for _, j := range f.Joins {
		k := pair{index[j.A], index[j.B]}
		if k.b < k.a {
			k = pair{k.b, k.a}
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], j.Selectivity)
	}
	g := joingraph.New(n)
	for _, k := range order {
		if err := g.AddEdge(k.a, k.b, canon.FoldSelectivities(groups[k])); err != nil {
			return core.Query{}, nil, err
		}
	}
	return core.Query{Cards: cards, Graph: g}, names, nil
}
