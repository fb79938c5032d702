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
// how late it stops: at n = 22 one round visits about 110k subsets and
// takes on the order of 100 ms.
func ladderK(n int) int {
	if n < 6 {
		return n
	}
	return 6
}

// thresholdAbove returns a plan-cost threshold strictly above the given
// upper bound, so a plan costing exactly the bound still survives the
// threshold pass's strict comparisons.
func thresholdAbove(bound float64) float64 {
	return bound*(1+1e-9) + math.SmallestNonzeroFloat64
}

// runLadder is the degradation ladder: exhaustive blitzsplit, then a
// threshold-pruned pass seeded by a greedy upper bound, then bounded IDP
// with randomized polish, then the greedy plan itself. Rungs are attempted
// in order until one finishes inside the budget; the greedy floor always
// does. Explicit cancellation aborts between rungs instead of degrading.
// Every rung draws its scratch tables from the engine's arena, so a rung cut
// down mid-run returns its table to the pool instead of leaking it.
func (e *Engine) runLadder(cq core.Query, cfg config, ctx context.Context) (*outcome, error) {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}

	// Rung 1: exhaustive, within half the remaining budget.
	faultinject.Inject(faultinject.FacadeRung)
	opts := cfg.opts
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
	var be *core.BudgetError
	memoryBound := errors.As(err, &be) && be.Phase == core.PhaseAdmission

	m := cfg.model()
	// The greedy bound seeds the threshold rung and is the ladder's floor.
	greedy, gerr := baseline.GreedyLeftDeep(cq.Cards, cq.Graph, m)
	if gerr != nil {
		return nil, gerr
	}

	// Rung 2: threshold-pruned exhaustive. The greedy cost bounds the
	// optimum from above, so a threshold just beyond it keeps the optimum
	// reachable while the §6.4 pruning skips nearly all κ″ work. Pointless
	// when the table itself was refused (same footprint) or time is up.
	if !memoryBound && ctxErr() == nil {
		faultinject.Inject(faultinject.FacadeRung)
		topts := cfg.opts
		rctx, cancel = rungSlice(ctx)
		topts.Ctx = rctx
		topts.CostThreshold = thresholdAbove(greedy.Cost)
		res, err = core.Optimize(cq, topts)
		cancel()
		if err == nil {
			return &outcome{plan: res.Plan, cost: res.Cost, card: res.Cardinality, counters: res.Counters, mode: ModeThreshold}, nil
		}
		if !errors.Is(err, core.ErrBudgetExceeded) {
			return nil, err
		}
		if errors.Is(ctxErr(), context.Canceled) {
			return nil, err
		}
	}

	// Rung 3: bounded IDP plus polish — polynomial time, but its first round
	// indexes a dense 2^n table that MemBudget does not count.
	if ctxErr() == nil {
		faultinject.Inject(faultinject.FacadeRung)
		rctx, cancel = rungSlice(ctx)
		hres, herr := hybrid.ChainedLocal(cq.Cards, cq.Graph, m, hybrid.IDPOptions{
			K:          ladderK(len(cq.Cards)),
			Stochastic: baseline.StochasticOptions{Seed: 1},
			Ctx:        rctx,
			Arena:      e.arena,
			Enumerator: cfg.opts.Enumerator,
		})
		cancel()
		if herr == nil {
			return &outcome{plan: hres.Plan, cost: hres.Cost, card: hres.Plan.Card, mode: ModeIDP}, nil
		}
		if !errors.Is(herr, context.Canceled) && !errors.Is(herr, context.DeadlineExceeded) {
			return nil, herr
		}
		if errors.Is(ctxErr(), context.Canceled) {
			return nil, err
		}
	}

	// Rung 4: the greedy floor — O(n²), already computed, cannot fail.
	faultinject.Inject(faultinject.FacadeRung)
	return &outcome{plan: greedy.Plan, cost: greedy.Cost, card: greedy.Plan.Card, mode: ModeGreedy}, nil
}
