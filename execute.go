package blitzsplit

import (
	"context"
	"fmt"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
)

// ErrRowLimit is returned when an execution's intermediate result exceeds
// ExecuteOptions.MaxRows. Match with errors.Is.
var ErrRowLimit = engine.ErrRowLimit

// Execution type aliases: the vectorized runtime's instrumentation, exposed
// at the facade.
type (
	// ExecStats aggregates one execution (rows, joins, batches, wall time,
	// intermediate rows, optional per-operator breakdown).
	ExecStats = exec.Stats
	// ExecOpStats is one operator's entry in ExecStats.Ops.
	ExecOpStats = exec.OpStats
	// ReoptEvent records one adaptive re-optimization trigger.
	ReoptEvent = exec.ReoptEvent
)

// ExecuteOptions configures OptimizeAndExecute. The zero value executes the
// optimized plan statically on the vectorized engine with hash joins.
type ExecuteOptions struct {
	// Algorithm selects the physical join operator: "hash" (default),
	// "sortmerge", or "nestedloops". Unknown names are an error.
	Algorithm string
	// UsePlanAlgorithms honours per-node algorithm annotations (see
	// WithAlgorithms and §6.5).
	UsePlanAlgorithms bool
	// MaxRows aborts execution with ErrRowLimit when an intermediate result
	// exceeds it (0 means 10 million).
	MaxRows int
	// BatchSize bounds the rows a join probes per batch (0 means 1024).
	BatchSize int
	// CollectOps records a per-operator breakdown in ExecuteResult.Exec.Ops.
	CollectOps bool
	// Adaptive enables mid-query re-optimization: after each join, observed
	// cardinality is compared against the estimate, and on deviation beyond
	// ReoptRatio the remaining relations are re-planned through this Engine
	// (cached, budget-governed) and spliced in.
	Adaptive bool
	// ReoptRatio overrides the deviation trigger (0 means 3); MaxReopts
	// bounds replans per execution (0 means 3).
	ReoptRatio float64
	MaxReopts  int
}

// ExecuteResult is an optimization plus its execution: the embedded Result
// describes the plan served (cache, mode, estimates), and the execution
// fields describe what actually happened when it ran.
type ExecuteResult struct {
	*Result
	// Rows is the actual result cardinality — the ground truth the embedded
	// Result.Cardinality only estimated.
	Rows int64
	// Exec instruments the execution.
	Exec ExecStats
	// Reopts lists adaptive re-optimization events, in execution order.
	Reopts []ReoptEvent
	// ExecutedPlan is the tree that actually ran: identical to Result.Plan
	// unless adaptive execution replanned mid-query.
	ExecutedPlan *Plan
	// Downranked reports that the engine demoted the served cache entry
	// because execution observed its estimates to be stale.
	Downranked bool
}

// OptimizeAndExecute optimizes the query (through the plan cache, exactly
// like Optimize) and executes the winning plan against db on the vectorized
// columnar runtime. With eo.Adaptive, execution re-optimizes mid-query when
// observed cardinalities deviate from the estimates — re-planning runs
// through this same engine, so it is cached and budget-governed like any
// other optimization — and a replan on a cache-served plan downranks the
// stale cache entry toward eviction.
//
// Executor panics are recovered like optimizer panics: the request fails
// with *InternalError, the engine keeps serving, and repeated offenders
// strike the query shape toward quarantine.
func (e *Engine) OptimizeAndExecute(ctx context.Context, q *Query, db *Database, eo ExecuteOptions, options ...Option) (*ExecuteResult, error) {
	if db == nil {
		return nil, fmt.Errorf("blitzsplit: nil database")
	}
	alg, err := engine.ParseAlgorithm(eo.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("blitzsplit: %w", err)
	}
	res, err := e.Optimize(ctx, q, options...)
	if err != nil {
		return nil, err
	}
	// The canonical cache key ties execution failures to the same shape the
	// optimizer's quarantine uses; best-effort (empty on cache-less engines).
	key := e.executionKey(q, options)
	er, err := e.executePlan(ctx, q, db, res, eo, alg, key, options)
	if err != nil {
		return nil, err
	}
	e.execs.Add(1)
	if n := len(er.Reopts); n > 0 {
		e.reopts.Add(uint64(n))
		replanned := false
		for _, ev := range er.Reopts {
			if ev.Replanned {
				replanned = true
			}
		}
		// A replan means the plan's estimates misled execution; if that plan
		// came out of the cache, demote the entry so byte pressure evicts it
		// before still-accurate plans.
		if replanned && res.Cached && key != "" && e.cache != nil && e.cache.Downrank(key) {
			e.downranks.Add(1)
			er.Downranked = true
		}
	}
	return er, nil
}

// executePlan runs the optimized plan under the engine's panic boundary.
func (e *Engine) executePlan(ctx context.Context, q *Query, db *Database, res *Result, eo ExecuteOptions, alg exec.Algorithm, key string, options []Option) (er *ExecuteResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			er, err = nil, e.recordPanic(v, key)
		}
	}()
	xopts := exec.Options{
		Algorithm:         alg,
		UsePlanAlgorithms: eo.UsePlanAlgorithms,
		MaxRows:           eo.MaxRows,
		BatchSize:         eo.BatchSize,
		CollectOps:        eo.CollectOps,
	}
	var out *exec.Result
	if eo.Adaptive {
		out, err = exec.RunAdaptive(db, res.Plan, xopts, exec.AdaptiveOptions{
			Ratio:      eo.ReoptRatio,
			MaxReopts:  eo.MaxReopts,
			Reoptimize: e.groupReoptimizer(ctx, options),
		})
	} else {
		out, err = exec.Run(db, res.Plan, xopts)
	}
	if err != nil {
		return nil, err
	}
	return &ExecuteResult{
		Result:       res,
		Rows:         out.Rows,
		Exec:         out.Stats,
		Reopts:       out.Events,
		ExecutedPlan: out.Plan,
	}, nil
}

// groupReoptimizer adapts Engine.Optimize into the executor's ReoptFunc: the
// frontier groups become an ordinary query (synthetic names, observed
// cardinalities, folded selectivities) optimized under the caller's options
// — plan cache, budgets, and degradation ladder included.
func (e *Engine) groupReoptimizer(ctx context.Context, options []Option) exec.ReoptFunc {
	return func(gq exec.GroupQuery) (*Plan, error) {
		q := NewQuery()
		for i, c := range gq.Cards {
			if err := q.AddRelation(fmt.Sprintf("G%d", i), c); err != nil {
				return nil, err
			}
		}
		for _, ed := range gq.Edges {
			if err := q.Join(fmt.Sprintf("G%d", ed.A), fmt.Sprintf("G%d", ed.B), ed.Selectivity); err != nil {
				return nil, err
			}
		}
		res, err := e.Optimize(ctx, q, options...)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
}

// executionKey computes the canonical cache key for the query under the
// given options — the same bytes optimizeQuery derives on the serve path —
// so execution panics strike, and cache downranks land on, exactly the
// entry that served the plan. Best-effort: any failure (including a
// cache-less engine, which has no key space) yields "".
func (e *Engine) executionKey(q *Query, options []Option) string {
	if e.cache == nil {
		return ""
	}
	cfg, err := newConfig(options)
	if err != nil {
		return ""
	}
	cq, err := q.build()
	if err != nil || cq.Estimator != nil {
		return ""
	}
	sc := e.scratch.Get().(*serveScratch)
	defer e.scratch.Put(sc)
	if err := sc.canon.Canonicalize(cq, canon.Options{SelectivityQuantum: e.quantum}); err != nil {
		return ""
	}
	eligible := sc.canon.Connected() && !cfg.opts.LeftDeep &&
		!cfg.opts.DisableNestedIfs && !cfg.opts.DescendingSubsets
	enum, err := cfg.opts.ResolveEnumerator(eligible)
	if err != nil {
		return ""
	}
	cfg.opts.Enumerator = enum
	sc.key = appendCacheKey(sc.key[:0], sc.canon.Fingerprint(), cfg.opts)
	return string(sc.key)
}
