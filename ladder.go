package blitzsplit

import (
	"context"
	"errors"
	"math"
	"time"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/core"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/hybrid"
	"blitzsplit/internal/plan"
)

// rungSlice gives one ladder rung half the context's remaining deadline, so
// lower rungs always retain budget of their own.
func rungSlice(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		return nil, func() {}
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(remaining/2))
}

// ladderK picks the IDP block size for the ladder's hybrid rung: exact for
// tiny queries, otherwise 6. hybrid.IDP checks its context every 1024
// subsets inside a round, so K sets the rung's plan quality and work, not
// how late it stops: at n = 22 the first round visits about 110k subsets
// and takes 35–46 ms under the blitz enumerator on a 2-vCPU Xeon.
func ladderK(n int) int {
	if n < 6 {
		return n
	}
	return 6
}

// runLadder is the degradation ladder: exhaustive blitzsplit seeded with the
// greedy plan's §6.4 threshold, then bounded IDP with randomized polish, then
// the greedy plan itself. Rungs are attempted in order until one finishes
// inside the budget; the greedy floor always does. Explicit cancellation
// aborts between rungs instead of degrading. Rung 1 draws its 2^n table from
// the engine's arena, so a rung cut down mid-run returns its table to the
// pool instead of leaking it; rung 2 allocates only its per-round tables over
// subsets of at most ladderK units. Without WithMemoryBudget, rung 1 is
// admitted against the arena's capacity, as blitzd admits every request: a
// table the arena could never pool is refused before it is allocated, and
// the ladder answers from IDP instead.
func (e *Engine) runLadder(cq core.Query, cfg config, ctx context.Context) (*outcome, error) {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if cfg.opts.MemoryBudget == 0 {
		cfg.opts.MemoryBudget = e.arena.Stats().Capacity
	}

	// The greedy plan seeds rung 1 and is the ladder's floor. Validate and
	// resolve the enumerator first, so an invalid query fails with core's
	// errors, not greedy's.
	if err := cq.Validate(); err != nil {
		return nil, err
	}
	enum, err := cfg.opts.EnumeratorFor(cq)
	if err != nil {
		return nil, err
	}
	m := cfg.model()
	greedy, threshold, err := baseline.Seed(cq.Cards, cq.Graph, m, enum == core.EnumeratorCCP)
	if err != nil {
		return nil, err
	}

	// Rung 1: exhaustive, within half the remaining budget. Unless the
	// caller set a threshold of their own, the greedy seed prunes the fill
	// to one pass that still returns the exact optimum.
	faultinject.Inject(faultinject.FacadeRung)
	opts := cfg.opts
	if opts.CostThreshold == 0 {
		opts.CostThreshold = threshold
	}
	rctx, cancel := rungSlice(ctx)
	opts.Ctx = rctx
	res, err := core.Optimize(cq, opts)
	cancel()
	if err == nil {
		return &outcome{plan: res.Plan, cost: res.Cost, card: res.Cardinality, counters: res.Counters, mode: ModeExhaustive}, nil
	}
	if !errors.Is(err, core.ErrBudgetExceeded) {
		return nil, err // ErrNoPlan, validation, … — not a budget problem
	}
	if errors.Is(ctxErr(), context.Canceled) {
		return nil, err // the caller cancelled; they want out, not a fallback
	}

	// Rung 2: bounded IDP plus polish — polynomial time and space. A round
	// over u units holds Σ_{k≤ladderK} C(u, k) entries, at most 17.6 MiB at
	// n = 30, which MemBudget does not count.
	if ctxErr() == nil {
		faultinject.Inject(faultinject.FacadeRung)
		rctx, cancel = rungSlice(ctx)
		hres, herr := hybrid.ChainedLocal(cq.Cards, cq.Graph, m, hybrid.IDPOptions{
			K:          ladderK(len(cq.Cards)),
			Stochastic: baseline.StochasticOptions{Seed: 1},
			Ctx:        rctx,
			Enumerator: cfg.opts.Enumerator,
		})
		cancel()
		if herr == nil {
			return degraded(hres.Plan, hres.Cost, ModeIDP)
		}
		if !errors.Is(herr, context.Canceled) && !errors.Is(herr, context.DeadlineExceeded) {
			return nil, herr
		}
		if errors.Is(ctxErr(), context.Canceled) {
			return nil, err
		}
	}

	// Rung 3: the greedy floor — O(n²), already computed; it fails only when
	// its cost overflowed.
	faultinject.Inject(faultinject.FacadeRung)
	return degraded(greedy.Plan, greedy.Cost, ModeGreedy)
}

// degraded is a lower rung's answer. A plan whose cost overflowed to +Inf
// (or NaN) is no answer: rung 1 reports core.ErrNoPlan for the same
// condition, and a non-finite cost cannot be encoded as JSON.
func degraded(p *plan.Node, cost float64, mode string) (*outcome, error) {
	if math.IsInf(cost, 0) || math.IsNaN(cost) {
		return nil, core.ErrNoPlan
	}
	return &outcome{plan: p, cost: cost, card: p.Card, mode: mode}, nil
}
