package blitzsplit

import (
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/plan"
)

// Result is the outcome of Optimize.
type Result struct {
	// Plan is the optimal join tree.
	Plan *Plan
	// Cost is the plan's estimated cost under the chosen model.
	Cost float64
	// Cardinality is the estimated result size.
	Cardinality float64
	// Counters holds the §3.3 instrumentation for the run. For a cached
	// result they describe the cold run that populated the cache entry; for
	// a ladder run, the greedy-seeded pruned pass.
	Counters Counters
	// Mode records which optimizer produced the plan: ModeExhaustive for
	// the full blitzsplit search, or the degradation-ladder rung (ModeIDP,
	// ModeGreedy) that won under WithDeadlineLadder.
	Mode string
	// Degraded reports that a resource budget forced the plan off the
	// exhaustive rung. A degraded plan is still well-formed and
	// cost-consistent (it passes Verify), but it carries no optimality
	// guarantee.
	Degraded bool
	// Cached reports that the plan was served from the Engine's plan cache —
	// rewritten from canonical to this query's relation numbering — rather
	// than optimized fresh. Always false on the default engine, whose cache
	// is disabled.
	Cached bool

	names []string
	query core.Query
	model cost.Model
}

// outcome is the internal optimizer product before facade assembly: the plan
// in whatever relation numbering the producing stage used, plus the scalars
// that ride with it. The engine relabels cached/canonical outcomes back to
// caller numbering before finish turns them into a Result.
type outcome struct {
	plan     *plan.Node
	cost     float64
	card     float64
	counters Counters
	mode     string
	cached   bool
}

// finish assembles the facade Result for an outcome produced by any rung or
// by the cache.
func (c config) finish(o *outcome, names []string, cq core.Query) *Result {
	if c.attachAlg {
		o.plan.AttachAlgorithms(c.model())
	}
	return &Result{
		Plan:        o.plan,
		Cost:        o.cost,
		Cardinality: o.card,
		Counters:    o.counters,
		Mode:        o.mode,
		Degraded:    o.mode != ModeExhaustive,
		Cached:      o.cached,
		names:       names,
		query:       cq,
		model:       c.opts.Model,
	}
}

// Expression renders the plan as a parenthesized join expression using the
// query's relation names.
func (r *Result) Expression() string { return r.Plan.Expression(r.names) }

// Verify audits the result with the internal correctness harness: the plan
// must be structurally well-formed (each base relation in exactly one leaf,
// children partitioning each node's relation set), and every cardinality and
// cost in it must match a from-scratch recomputation against the original
// query and cost model. It returns nil for every result the library
// produces — cache hits included; a non-nil error means a bug (or a Result
// mutated after the fact). See DESIGN.md's "Correctness harness" section for
// the full invariant suite this draws from.
func (r *Result) Verify() error {
	if err := check.WellFormed(len(r.query.Cards), r.Plan); err != nil {
		return err
	}
	m := r.model
	if m == nil {
		m = cost.Naive{}
	}
	return check.CostConsistent(r.query, m, &core.Result{
		Plan:        r.Plan,
		Cost:        r.Cost,
		Cardinality: r.Cardinality,
		Counters:    r.Counters,
	})
}
