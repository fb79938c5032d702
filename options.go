package blitzsplit

import (
	"context"
	"errors"
	"time"

	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
)

// config collects optimization options.
type config struct {
	opts      core.Options
	attachAlg bool
	ctx       context.Context
	timeout   time.Duration
	ladder    bool
}

// newConfig folds a caller's options into a config.
func newConfig(options []Option) (config, error) {
	var cfg config
	for _, o := range options {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	return cfg, nil
}

// model returns the configured cost model, defaulting like core does.
func (c config) model() cost.Model {
	if c.opts.Model == nil {
		return cost.Naive{}
	}
	return c.opts.Model
}

// budgetContext derives the run's governing context from WithContext and
// WithTimeout; nil when neither was given.
func (c config) budgetContext() (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return c.ctx, func() {}
	}
	base := c.ctx
	if base == nil {
		base = context.Background()
	}
	return context.WithTimeout(base, c.timeout)
}

// Option configures Optimize.
type Option func(*config) error

// WithCostModel selects the cost model by name: "naive" (κ0), "sortmerge"
// (κsm), "dnl" (κdnl), "hash", or a composite like "min(sortmerge,dnl)"
// modelling the availability of multiple join algorithms (§6.5). The default
// is "naive".
func WithCostModel(name string) Option {
	return func(c *config) error {
		m, err := cost.ByName(name)
		if err != nil {
			return err
		}
		c.opts.Model = m
		return nil
	}
}

// WithLeftDeep restricts the search to left-deep vines (the comparison space
// of §6.2). Cartesian products remain allowed.
func WithLeftDeep() Option {
	return func(c *config) error {
		c.opts.LeftDeep = true
		return nil
	}
}

// WithEnumerator selects the exact fill strategy: EnumeratorBlitz (the
// paper's 3^n split scan, the default), EnumeratorCCP (the DPccp-style
// connected-complement-pair restriction — exact over the
// Cartesian-product-free space, requires a connected join graph), or
// EnumeratorAuto (CCP when the query is eligible, blitz otherwise). See the
// Enumerator constants for the search-space caveat Auto accepts. The engine
// resolves Auto per query before its cache lookup, so plans optimized under
// different strategies never alias in the plan cache.
func WithEnumerator(e Enumerator) Option {
	return func(c *config) error {
		switch e {
		case EnumeratorBlitz, EnumeratorCCP, EnumeratorAuto:
			c.opts.Enumerator = e
			return nil
		}
		return errors.New("blitzsplit: invalid enumerator")
	}
}

// WithParallelism fills the DP table with w parallel workers. The table's
// rank layers (subsets of equal popcount) depend only on lower layers, so
// each layer is partitioned across workers; plans, costs and counters are
// bit-identical to the default serial fill. 0 restores the serial fill;
// values beyond runtime.GOMAXPROCS add no speedup.
func WithParallelism(w int) Option {
	return func(c *config) error {
		if w < 0 {
			return errors.New("blitzsplit: parallelism must be ≥ 0")
		}
		c.opts.Parallelism = w
		return nil
	}
}

// WithCostThreshold enables §6.4 plan-cost-threshold pruning: plans costing
// at or above threshold are summarily rejected, and optimization retries
// with a 1000× larger threshold whenever a pass finds no plan. A threshold
// equal to the optimum's cost therefore usually pays a second pass; to admit
// a known cost in one pass, use the next float64 above it (math.Nextafter).
// Queries with cheap plans optimize faster; expensive ones pay for extra
// passes.
func WithCostThreshold(threshold float64) Option {
	return func(c *config) error {
		if threshold <= 0 {
			return errors.New("blitzsplit: cost threshold must be positive")
		}
		c.opts.CostThreshold = threshold
		return nil
	}
}

// WithAlgorithms attaches the winning physical join algorithm to every join
// node after optimization (meaningful with a min(...) composite model; §6.5).
func WithAlgorithms() Option {
	return func(c *config) error {
		c.attachAlg = true
		return nil
	}
}

// WithContext bounds the optimization by the context: cancellation or
// deadline stops the run cooperatively (within a few thousand split loops)
// and Optimize returns a *BudgetError wrapping ErrBudgetExceeded and the
// context's error — unless WithDeadlineLadder is also set, in which case a
// deadline degrades to cheaper optimizers instead of failing. When calling
// Engine.Optimize, this option takes precedence over the method's context
// argument.
func WithContext(ctx context.Context) Option {
	return func(c *config) error {
		if ctx == nil {
			return errors.New("blitzsplit: nil context")
		}
		c.ctx = ctx
		return nil
	}
}

// WithTimeout bounds the optimization to d of wall time; it is WithContext
// with a deadline d from the moment Optimize is called. Combine with
// WithDeadlineLadder to get a (possibly degraded) plan instead of an error
// when the budget runs out.
func WithTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return errors.New("blitzsplit: timeout must be positive")
		}
		c.timeout = d
		return nil
	}
}

// WithMemoryBudget rejects the optimization up front — before anything is
// allocated — when its footprint exceeds budget bytes: the DP table's four
// 2^n-element columns (core.TableFootprint), plus under the CCP enumerator
// the 2^n-bit connectivity bitmap and, with WithParallelism, a rank-layer
// buffer (core.CCPFootprint). Without WithDeadlineLadder
// the rejection surfaces as a *BudgetError; with it, the ladder skips
// straight to the bounded-memory rungs (IDP, then greedy). A ladder without
// this option is admitted against the engine arena's capacity
// (EngineOptions.ArenaBytes, 256 MiB by default): a table larger than the
// arena answers from IDP or greedy, which under the default naive model on a
// join graph means n ≥ 24. The IDP rung's tables hold one 24-byte entry per
// subset of at most six relations, at most 17.6 MiB at n = 30; the budget
// does not count them. A plan-cache hit is exempt: serving a cached plan
// allocates no table at all.
func WithMemoryBudget(budget uint64) Option {
	return func(c *config) error {
		if budget == 0 {
			return errors.New("blitzsplit: memory budget must be positive")
		}
		c.opts.MemoryBudget = budget
		return nil
	}
}

// WithDeadlineLadder makes Optimize degrade instead of fail when a budget
// (WithTimeout, WithContext deadline, WithMemoryBudget) runs out, walking a
// ladder of ever-cheaper optimizers and recording the winning rung in
// Result.Mode:
//
//	greedy-seeded exhaustive → bounded IDP + polish → greedy
//
// The greedy plan is computed first: unless WithCostThreshold is set, its
// cost seeds the exhaustive rung's §6.4 threshold whenever the plan lies in
// the searched space, so that rung runs one pruned pass that still returns
// the exact optimum. With a deadline, each attempted rung gets half the
// remaining budget so lower rungs always retain time to run; the greedy
// floor is O(n²) and needs effectively none. Without WithMemoryBudget the
// exhaustive rung is admitted against the engine arena's capacity, so a
// query whose table exceeds the arena (n ≥ 24 under the default naive model
// on a join graph) answers from IDP or greedy without allocating the table.
// Every rung's plan passes Result.Verify. Explicit cancellation
// (context.Canceled, as opposed to a deadline) aborts the ladder and returns
// the budget error: a caller that cancelled wants no answer at all.
func WithDeadlineLadder() Option {
	return func(c *config) error {
		c.ladder = true
		return nil
	}
}
