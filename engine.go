package blitzsplit

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plancache"
)

// EngineOptions configures New. The zero value is a served-traffic default:
// a 64 MiB plan cache over 16 shards, a 256 MiB table arena, and quarantine
// after DefaultQuarantineThreshold panics per query shape.
type EngineOptions struct {
	// CacheBytes bounds the plan cache's footprint; 0 selects the 64 MiB
	// default. Ignored when DisableCache is set.
	CacheBytes uint64
	// DisableCache turns the plan cache off entirely: every Optimize runs
	// cold (but still through the table arena). The package-level default
	// engine runs with the cache disabled so the one-shot API keeps its
	// exact historical semantics.
	DisableCache bool
	// ArenaBytes bounds the idle DP-table pool; 0 selects the 256 MiB
	// default.
	ArenaBytes uint64
}

// DefaultQuarantineThreshold is how many recovered optimizer panics a single
// cached query shape may cause before the engine quarantines it — refusing
// further requests for that shape with *QuarantineError instead of
// re-running a search known to crash. Every panic is still recovered and
// counted.
const DefaultQuarantineThreshold = 3

// Engine is a long-lived, concurrency-safe optimizer: the one-shot facade
// rebuilt around two layers of reuse. A table arena pools the 2^n-element DP
// tables across runs (and across the degradation ladder's rungs), and a
// sharded LRU plan cache keyed by canonical query fingerprints
// (internal/canon) serves repeated query shapes — under any relation
// numbering — without re-running the 3^n search. Construct with New; any
// number of goroutines may call Optimize concurrently.
type Engine struct {
	cache *plancache.Cache // nil when disabled
	arena *core.Arena
	// scratch pools serveScratch values so concurrent Optimize calls never
	// contend on one canonicalizer and a steady-state cache hit performs O(1)
	// small allocations.
	scratch sync.Pool
	// execs, reopts, and downranks instrument OptimizeAndExecute: executions
	// served, adaptive re-optimization events observed, and cache entries
	// demoted after a replan proved their estimates stale (execute.go).
	execs     atomic.Uint64
	reopts    atomic.Uint64
	downranks atomic.Uint64
	// panics counts optimizer panics recovered at the engine boundary; quar
	// implements the K-strike quarantine (crash.go).
	panics atomic.Uint64
	quar   struct {
		total       atomic.Uint64 // strikes ever recorded; 0 gates the fast path
		mu          sync.Mutex
		strikes     map[string]int
		quarantined int // shapes at or past the threshold
	}
	// snap records the latest snapshot write and restore for Stats.
	snap struct {
		mu       sync.Mutex
		last     SnapshotInfo
		restore  plancache.LoadStats
		restored bool
	}
}

// serveScratch is the reusable per-Optimize state of the serve path: the
// canonicalizer's refinement scratch and the cache-key buffer. Everything in
// it is overwritten by the next use and must not be referenced after the
// scratch is returned to the pool.
type serveScratch struct {
	canon canon.Canonicalizer
	key   []byte
}

// New returns an Engine with the given options.
func New(opts EngineOptions) *Engine {
	e := &Engine{arena: core.NewArena(opts.ArenaBytes)}
	e.quar.strikes = make(map[string]int)
	e.scratch.New = func() any { return new(serveScratch) }
	if !opts.DisableCache {
		e.cache = plancache.New(opts.CacheBytes, 0)
	}
	return e
}

// defaultEngine backs the package-level one-shot API. Its plan cache is
// disabled — Query.Optimize has always re-optimized every call, and counters
// and threshold-pass behavior are part of that contract — but its arena
// still pools DP tables across calls, which is semantically invisible.
var defaultEngine = sync.OnceValue(func() *Engine {
	return New(EngineOptions{DisableCache: true})
})

// Default returns the shared engine behind Query.Optimize and the other
// package-level entry points.
func Default() *Engine { return defaultEngine() }

// EngineStats is a point-in-time snapshot of an engine's reuse layers and
// crash-safety counters.
type EngineStats struct {
	// Cache aggregates the plan cache's shards; zero-valued when the cache
	// is disabled.
	Cache plancache.Stats
	// Arena describes the DP-table pool. Arena.Live is the number of tables
	// currently checked out — 0 whenever no optimization is in flight.
	Arena core.ArenaStats
	// Executions counts OptimizeAndExecute calls served; Reopts counts
	// adaptive re-optimization events observed across them; PlanDownranks
	// counts cached entries demoted because execution replanned away from
	// their estimates.
	Executions    uint64
	Reopts        uint64
	PlanDownranks uint64
	// PanicsRecovered counts optimizer panics converted to *InternalError at
	// the engine boundary; QuarantinedShapes is how many query shapes have
	// hit the quarantine threshold and are being refused.
	PanicsRecovered   uint64
	QuarantinedShapes int
	// LastSnapshot describes the most recent successful WriteSnapshot
	// (zero-valued if none). Restore is the outcome of LoadSnapshot;
	// Restored says whether one ran.
	LastSnapshot SnapshotInfo
	Restore      SnapshotLoadStats
	Restored     bool
}

// Stats snapshots the engine's cache, arena, panic, quarantine, and snapshot
// counters.
func (e *Engine) Stats() EngineStats {
	var st EngineStats
	if e.cache != nil {
		st.Cache = e.cache.Snapshot()
	}
	st.Arena = e.arena.Stats()
	st.Executions = e.execs.Load()
	st.Reopts = e.reopts.Load()
	st.PlanDownranks = e.downranks.Load()
	st.PanicsRecovered = e.panics.Load()
	e.quar.mu.Lock()
	st.QuarantinedShapes = e.quar.quarantined
	e.quar.mu.Unlock()
	e.snap.mu.Lock()
	st.LastSnapshot = e.snap.last
	st.Restore = e.snap.restore
	st.Restored = e.snap.restored
	e.snap.mu.Unlock()
	return st
}

// Optimize runs Algorithm blitzsplit over the query and returns the optimal
// bushy plan, consulting the engine's plan cache first: if an isomorphic
// query (same shape under some relation renumbering, per internal/canon) was
// optimized before, its plan's numbers are re-derived from the query and the
// plan is rewritten to this query's numbering and returned with
// Result.Cached set — bit-identical cost, cardinality and plan shape to what
// a cold run would produce. Only full exhaustive optima are
// cached; degraded ladder results are returned but never stored.
//
// ctx bounds the run like WithContext (a WithContext option takes
// precedence); nil means no context budget. Budgets govern the cold path —
// a cache hit costs microseconds and is served even when a cold run would
// have been refused by WithMemoryBudget, since it allocates no table.
//
// A panic anywhere below this boundary — an optimizer bug, or an injected
// fault — is recovered and returned as an *InternalError rather than
// crashing the caller; a shape that panics repeatedly is quarantined (see
// DefaultQuarantineThreshold).
func (e *Engine) Optimize(ctx context.Context, q *Query, options ...Option) (r *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			r, err = nil, e.recordPanic(v, "")
		}
	}()
	cfg, err := newConfig(options)
	if err != nil {
		return nil, err
	}
	if cfg.ctx == nil {
		cfg.ctx = ctx
	}
	cq, err := q.build()
	if err != nil {
		return nil, err
	}
	return e.optimizeQuery(cq, cfg, q.resultNames())
}

// optimizeQuery is the engine's spine: cache lookup, cold optimization of
// the canonical query on a miss, store, and relabeling back to the caller's
// relation numbering.
func (e *Engine) optimizeQuery(cq core.Query, cfg config, names []string) (*Result, error) {
	// The facade result never exposes the DP table; discard-to-arena keeps
	// the 2^n columns pooled instead of riding along until the next GC.
	cfg.opts.DiscardTable = true
	cfg.opts.Arena = e.arena
	if e.cache == nil {
		o, err := e.run(cq, cfg)
		if err != nil {
			return nil, err
		}
		return cfg.finish(o, names, cq), nil
	}
	sc := e.scratch.Get().(*serveScratch)
	if err := e.planKey(sc, cq, &cfg.opts); err != nil {
		e.scratch.Put(sc)
		return nil, err
	}
	// A shape that has panicked the optimizer K times is refused before the
	// cache is consulted: a quarantined shape must never serve a stale hit or
	// re-run the crashing search.
	if strikes, out := e.quarantineStrikes(sc.key); out {
		e.scratch.Put(sc)
		return nil, &QuarantineError{Strikes: strikes}
	}
	ent, hit := e.cache.GetBytes(sc.key)
	if hit && rederive(sc, ent, cfg.opts.Model) {
		// The hit path runs entirely out of scratch: the plan the cache
		// built for this hit (one slab allocation), annotated and relabeled
		// in place, is the only state that outlives it. The outcome is a
		// local — finish only reads it, so it never escapes to the heap.
		canon.RelabelPlanInPlace(ent.Plan, sc.canon.ToOrig())
		o := outcome{
			plan:     ent.Plan,
			cost:     ent.Cost,
			card:     ent.Cardinality,
			counters: ent.Counters,
			mode:     ModeExhaustive,
			cached:   true,
		}
		e.scratch.Put(sc)
		return cfg.finish(&o, names, cq), nil
	}
	if hit {
		// A refused hit runs cold below, so it counts as a miss.
		e.cache.Refuse(sc.key)
	}
	// Miss: materialize the canonical result off the scratch before releasing
	// it — the cold run below may run for seconds and must not pin (or race
	// with another Optimize over) the pooled buffers.
	key := string(sc.key)
	cn := sc.canon.Canonical()
	e.scratch.Put(sc)
	// Optimize the canonical query, not the caller's labeling, so the stored
	// entry — and therefore every future hit, after relabeling — is
	// bit-identical to this cold result.
	o, err := e.runCold(cn.Query(), cfg, key)
	if err != nil {
		return nil, err
	}
	if o.mode == ModeExhaustive {
		// Only the true optimum is worth serving to every isomorphic query;
		// degraded ladder plans reflect one call's budget, not the query.
		// Put copies the plan, so the relabeling below may rewrite it.
		e.cache.Put(key, plancache.Entry{
			Plan:        o.plan,
			Cost:        o.cost,
			Cardinality: o.card,
			Counters:    o.counters,
		})
	}
	canon.RelabelPlanInPlace(o.plan, cn.ToOrig)
	return cfg.finish(o, names, cq), nil
}

// rederive fills in the numbers of a hit's shape-only plan from the
// canonical query in sc, with the fill's own arithmetic (core.AnnotatePlan),
// and reports whether the re-derived root matches the entry's stored cost
// and cardinality bit for bit. A hit that does not match is not served: the
// caller runs it cold, which overwrites the entry. Within one build it
// always matches; an entry restored from a snapshot written by a build
// whose cost arithmetic differed would not.
func rederive(sc *serveScratch, ent plancache.Entry, m cost.Model) bool {
	core.AnnotatePlan(ent.Plan, sc.canon.Cards(), sc.canon.Edges(), m)
	return math.Float64bits(ent.Plan.Cost) == math.Float64bits(ent.Cost) &&
		math.Float64bits(ent.Plan.Card) == math.Float64bits(ent.Cardinality)
}

// planKey canonicalizes cq into the pooled scratch, resolves the enumerator
// and appends the plan-cache key to sc.key: the one derivation of a request's
// identity, shared by the serve path and PlanKey so the two can never
// disagree on a key. Auto resolves to a concrete enumerator first because CCP
// and blitz search different plan spaces, so the resolved strategy belongs in
// the key, and an explicit-CCP eligibility error must surface on hits exactly
// as a cold run would report it. Connectivity comes memoized from the
// canonicalization pass (no graph walk; cache hits stay allocation-free); the
// remaining eligibility bits mirror core's ccpEligible. opts.Enumerator is
// overwritten with the resolved strategy.
func (e *Engine) planKey(sc *serveScratch, cq core.Query, opts *core.Options) error {
	if err := sc.canon.Canonicalize(cq, canon.Options{}); err != nil {
		return err
	}
	eligible := sc.canon.Connected() && !opts.LeftDeep &&
		!opts.DisableNestedIfs && !opts.DescendingSubsets
	enum, err := opts.ResolveEnumerator(eligible)
	if err != nil {
		return err
	}
	opts.Enumerator = enum
	sc.key = appendCacheKey(sc.key[:0], sc.canon.Fingerprint(), *opts)
	return nil
}

// runCold is run with the panic boundary that feeds quarantine: a panic in
// the cold search is converted to *InternalError here, where the cache key is
// still known, so the strike lands on the exact shape that crashed.
func (e *Engine) runCold(cq core.Query, cfg config, key string) (o *outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			o, err = nil, e.recordPanic(v, key)
		}
	}()
	return e.run(cq, cfg)
}

// run executes one governed cold optimization: the plain exhaustive search,
// or the degradation ladder under WithDeadlineLadder.
func (e *Engine) run(cq core.Query, cfg config) (*outcome, error) {
	faultinject.Inject(faultinject.EngineOptimize)
	ctx, cancel := cfg.budgetContext()
	defer cancel()
	if !cfg.ladder {
		opts := cfg.opts
		opts.Ctx = ctx
		res, err := core.Optimize(cq, opts)
		if err != nil {
			return nil, err
		}
		return &outcome{
			plan:     res.Plan,
			cost:     res.Cost,
			card:     res.Cardinality,
			counters: res.Counters,
			mode:     ModeExhaustive,
		}, nil
	}
	return e.runLadder(cq, cfg, ctx)
}

// appendCacheKey extends the canonical fingerprint with every option that
// changes which plan is optimal: the cost model, the left-deep restriction,
// the resolved enumerator (CCP searches only the Cartesian-product-free
// space, so its optimum can differ from the blitz scan's — Auto is resolved
// to a concrete strategy before the key is built), and core's default
// overflow limit, math.MaxFloat32 (this package never sets another; the
// bytes stay so that keys match across builds). Deliberately absent: CostThreshold (the threshold
// identity — a thresholded run returns the same plan or fails, though its
// pass counters differ, so a hit's Counters describe the run that populated
// the entry), Parallelism (the parallel fill is bit-identical), and the
// budget options (they decide whether a cold run finishes, never which plan
// wins). The key is appended into dst so the serve path can reuse one buffer
// per lookup; only models other than naive allocate (via fmt).
//
// The key opens with uvarint(len(fp)) so the fingerprint can be recovered
// from a stored key (keyFingerprint) — the cluster layer shards cache
// residency by fingerprint and must classify snapshot entries by owner
// without re-canonicalizing anything.
func appendCacheKey(dst []byte, fp []byte, opts core.Options) []byte {
	b := binary.AppendUvarint(dst, uint64(len(fp)))
	b = append(b, fp...)
	b = append(b, 0)
	if opts.LeftDeep {
		b = append(b, 'L')
	} else {
		b = append(b, 'B')
	}
	if opts.Enumerator == core.EnumeratorCCP {
		b = append(b, 'C')
	} else {
		b = append(b, 'X')
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.MaxFloat32))
	m := opts.Model
	if _, naive := m.(cost.Naive); m == nil || naive {
		// A nil model is core's default, cost.Naive: both spellings name the
		// same plans, so they share one entry.
		b = append(b, "naive"...)
	} else {
		// The dynamic type plus its printed fields distinguish identically
		// named but differently parameterized models. Two distinct
		// values of a semantically equal model can at worst miss, never
		// alias.
		b = fmt.Appendf(b, "%T|%+v", m, m)
	}
	return b
}

// keyFingerprint recovers the canonical fingerprint embedded in a cache key
// by appendCacheKey. ok is false when the key does not parse — an entry
// restored from a snapshot written before the length prefix existed. Such
// entries are merely unclassifiable (they can never match a live lookup
// either), never misattributed.
func keyFingerprint(key []byte) (fp []byte, ok bool) {
	size, n := binary.Uvarint(key)
	if n <= 0 || size > uint64(len(key)-n) {
		return nil, false
	}
	return key[n : n+int(size)], true
}

// Optimize runs Algorithm blitzsplit over the query and returns the optimal
// bushy plan. With a budget (WithTimeout, WithContext, WithMemoryBudget) the
// run is governed: it stops cooperatively when the budget runs out, and —
// under WithDeadlineLadder — degrades through bounded IDP and a greedy floor
// instead of failing, recording the rung in Result.Mode. It is
// Engine.Optimize on the shared Default engine, whose plan cache is
// disabled; servers wanting cached plans construct their own Engine with
// New.
func (q *Query) Optimize(options ...Option) (*Result, error) {
	return Default().Optimize(nil, q, options...)
}
