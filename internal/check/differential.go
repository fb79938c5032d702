package check

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
)

// boundaryTol is the relative band around the overflow limit inside which
// success/failure disagreements are forgiven: the optimizer compares plan
// costs against the limit, the oracles never do, so when the true optimum
// sits within rounding distance of the limit the two can legitimately land
// on opposite sides.
const boundaryTol = 1e-6

// OracleOptimal returns the ground-truth optimal cost of q under m with no
// overflow limit, from an implementation that shares no code with
// internal/core: top-down memoization over the bushy space, or the Selinger
// DP with Cartesian products allowed for the left-deep space.
func OracleOptimal(q core.Query, m cost.Model, leftDeep bool) (float64, error) {
	var r *baseline.Result
	var err error
	if leftDeep {
		r, err = baseline.SelingerLeftDeep(q.Cards, q.Graph, m, true)
	} else {
		r, err = baseline.RecursiveMemo(q.Cards, q.Graph, m)
	}
	if err != nil {
		return 0, err
	}
	return r.Cost, nil
}

// OracleAgreement checks an optimizer outcome against the ground truth:
// on success the cost must match OracleOptimal within Tol — in both
// directions, since an "impossibly good" cost means broken bookkeeping just
// as surely as a suboptimal one — and on ErrNoPlan the true optimum must
// actually lie at or beyond the overflow limit. Outcomes within boundaryTol
// of the limit are not judged.
func OracleAgreement(q core.Query, m cost.Model, leftDeep bool, limit float64, res *core.Result, optErr error) error {
	want, err := OracleOptimal(q, m, leftDeep)
	if err != nil {
		return fmt.Errorf("check: oracle failed: %w", err)
	}
	return agreeWithOracle(want, limit, res, optErr)
}

// BruteForceAgreement is OracleAgreement against the plan-enumerating brute
// force instead of the memoized recursion — a second, structurally different
// oracle. Only available for the bushy space at n ≤
// baseline.MaxBruteForceRelations; larger queries are vacuously accepted.
func BruteForceAgreement(q core.Query, m cost.Model, limit float64, res *core.Result, optErr error) error {
	if len(q.Cards) > baseline.MaxBruteForceRelations {
		return nil
	}
	r, err := baseline.BruteForce(q.Cards, q.Graph, m)
	if err != nil {
		return fmt.Errorf("check: brute force failed: %w", err)
	}
	return agreeWithOracle(r.Cost, limit, res, optErr)
}

func agreeWithOracle(want, limit float64, res *core.Result, optErr error) error {
	nearLimit := closeEnough(want, limit, boundaryTol)
	if optErr != nil {
		if !errors.Is(optErr, core.ErrNoPlan) {
			return fmt.Errorf("check: optimizer failed unexpectedly: %w", optErr)
		}
		if want < limit && !nearLimit {
			return fmt.Errorf("check: optimizer found no plan under limit %v, oracle found cost %v", limit, want)
		}
		return nil
	}
	got := res.Cost
	if got >= limit && !closeEnough(got, limit, boundaryTol) {
		return fmt.Errorf("check: optimizer accepted cost %v at or above its own limit %v", got, limit)
	}
	if want >= limit && !nearLimit {
		return fmt.Errorf("check: optimizer claims cost %v but the true optimum %v exceeds the limit %v",
			got, want, limit)
	}
	if !closeEnough(got, want, Tol) {
		if got < want {
			return fmt.Errorf("check: optimizer cost %v is impossibly better than the oracle optimum %v", got, want)
		}
		return fmt.Errorf("check: optimizer cost %v is suboptimal; oracle found %v", got, want)
	}
	return nil
}

// NoProductBounds checks the bushy optimizer against the no-Cartesian-product
// baselines it dominates: for a connected join graph,
// optimum ≤ BushyNoCP ≤ SelingerLeftDeep must hold (each space contains the
// next), and for a disconnected graph both baselines must report
// ErrDisconnected. got is the optimizer's cost, +Inf when it returned
// ErrNoPlan (then the baselines' optima must be at or beyond the limit too).
func NoProductBounds(q core.Query, m cost.Model, limit, got float64) error {
	if q.Graph == nil {
		return errors.New("check: NoProductBounds needs a join graph")
	}
	bnc, bncErr := baseline.BushyNoCP(q.Cards, q.Graph, m)
	sel, selErr := baseline.SelingerLeftDeep(q.Cards, q.Graph, m, false)
	if !q.Graph.Connected(bitset.Full(len(q.Cards))) {
		if !errors.Is(bncErr, baseline.ErrDisconnected) {
			return fmt.Errorf("check: BushyNoCP on a disconnected graph returned %v, want ErrDisconnected", bncErr)
		}
		if !errors.Is(selErr, baseline.ErrDisconnected) {
			return fmt.Errorf("check: SelingerLeftDeep on a disconnected graph returned %v, want ErrDisconnected", selErr)
		}
		return nil
	}
	if bncErr != nil || selErr != nil {
		return fmt.Errorf("check: baseline failed on a connected graph: %v / %v", bncErr, selErr)
	}
	if bnc.Cost > sel.Cost*(1+Tol) {
		return fmt.Errorf("check: BushyNoCP cost %v exceeds SelingerLeftDeep cost %v (smaller space)",
			bnc.Cost, sel.Cost)
	}
	if math.IsInf(got, 1) {
		if bnc.Cost < limit && !closeEnough(bnc.Cost, limit, boundaryTol) {
			return fmt.Errorf("check: optimizer found no plan under limit %v but BushyNoCP found cost %v",
				limit, bnc.Cost)
		}
		return nil
	}
	if got > bnc.Cost*(1+Tol) {
		return fmt.Errorf("check: optimizer cost %v exceeds BushyNoCP cost %v (subset of its space)",
			got, bnc.Cost)
	}
	return nil
}

// SerialParallelIdentical re-runs q under both the serial fill and the
// rank-layer parallel fill and requires bit-identical outcomes: cost,
// cardinality, plan tree, and merged counters. The parallel fill partitions
// work but never reorders the per-set split enumeration, so this is exact
// equality, not tolerance agreement.
func (c Checker) SerialParallelIdentical(q core.Query, opts core.Options, workers int) error {
	if workers < 2 {
		workers = 2
	}
	opts.Parallelism = 0
	serial, serialErr := c.optimize(q, opts)
	opts.Parallelism = workers
	par, parErr := c.optimize(q, opts)
	if err := EquivalentResults(serial, serialErr, par, parErr, true); err != nil {
		return fmt.Errorf("serial vs %d-worker parallel: %w", workers, err)
	}
	return nil
}

// ThresholdIdentical re-runs q with and without a §6.4 plan-cost threshold
// and requires identical final outcomes. Thresholding prunes the search and
// retries with a ×1000 larger threshold on failure (dropping it
// entirely on the last pass), so it can only skip work, never change the
// answer: final cost, cardinality, and plan must be bit-identical. Counters
// legitimately differ across pass counts and are not compared.
func (c Checker) ThresholdIdentical(q core.Query, opts core.Options, threshold float64) error {
	if threshold <= 0 {
		return errors.New("check: threshold must be positive")
	}
	opts.CostThreshold = 0
	base, baseErr := c.optimize(q, opts)
	opts.CostThreshold = threshold
	thr, thrErr := c.optimize(q, opts)
	if err := EquivalentResults(base, baseErr, thr, thrErr, false); err != nil {
		return fmt.Errorf("unthresholded vs threshold %v: %w", threshold, err)
	}
	return nil
}

// SeededIdentical is the exactness oracle for the greedy seed the
// degradation ladder starts its exhaustive rung under (baseline.Seed). It
// re-runs q unthresholded and under the seed's threshold and requires
// bit-identical plans, costs and cardinalities. Whenever the rule seeds, the
// seeded run must also finish in one pass: the greedy plan lies in the
// searched space, so its cost never undercuts the optimum and the §6.4 retry
// never fires. Options the search itself rejects for q pass vacuously.
func (c Checker) SeededIdentical(q core.Query, opts core.Options) error {
	enum, err := opts.EnumeratorFor(q)
	if err != nil {
		return nil
	}
	greedy, threshold, err := baseline.Seed(q.Cards, q.Graph, modelOrNaive(opts), enum == core.EnumeratorCCP)
	if err != nil {
		return fmt.Errorf("check: greedy seed: %w", err)
	}
	opts.CostThreshold = 0
	base, baseErr := c.optimize(q, opts)
	opts.CostThreshold = threshold
	seeded, seededErr := c.optimize(q, opts)
	if err := EquivalentResults(base, baseErr, seeded, seededErr, false); err != nil {
		return fmt.Errorf("unseeded vs seeded at %v: %w", threshold, err)
	}
	if threshold > 0 && seededErr == nil && seeded.Counters.Passes != 1 {
		return fmt.Errorf("check: seeded at threshold %v (greedy cost %v), the %v fill ran %d passes, want 1",
			threshold, greedy.Cost, enum, seeded.Counters.Passes)
	}
	return nil
}
