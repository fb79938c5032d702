// Package check is the correctness backstop for the whole optimizer stack:
// a library of composable invariant verifiers that every perf-oriented
// change (parallel fill, thresholds, caching, sharding) must keep green.
// The verifiers form a lattice, cheapest to strongest:
//
//  1. plan well-formedness — each base relation appears in exactly one leaf,
//     children partition their parent's relation set (WellFormed);
//  2. cost bookkeeping — recompute every cardinality and κ from scratch with
//     internal/cost and the reference JoinCardinality; must match the
//     optimizer's Result (CostConsistent), plus the paper's closed-form
//     operation counts (CountersExact);
//  3. differential optimality — agreement with independent oracles
//     (BruteForce, RecursiveMemo, Selinger-with-products for left-deep) and
//     bound relations against the no-Cartesian-product baselines
//     (OracleAgreement, NoProductBounds), and run-vs-run identities
//     (SerialParallelIdentical, ThresholdIdentical);
//  4. metamorphic transforms — cost-model-independent input transformations
//     with known effect on the optimum (PermutationInvariant,
//     SelectivityOneNeutral, ScalingMonotone);
//  5. execution ground truth — every plan executed on a Synthesize'd
//     database, under every join algorithm and the adaptive driver, must
//     produce the row count of the full join, counted without a plan
//     (CountRows, ExecutionAgree).
//
// Verifiers that re-run the optimizer go through a Checker, whose Optimizer
// hook exists so tests can inject deliberately broken optimizers and prove
// each verifier actually fails when its invariant is violated (the mutant
// tests in check_test.go). Checker.Full runs the whole lattice on one query
// — the body of the FuzzOptimize target.
package check

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
)

// Optimizer is the function under test; the zero Checker uses core.Optimize.
type Optimizer func(core.Query, core.Options) (*core.Result, error)

// Checker bundles the optimizer the run-vs-run and metamorphic verifiers
// drive. The zero value checks the real optimizer.
type Checker struct {
	// Optimizer replaces core.Optimize when non-nil (mutant tests).
	Optimizer Optimizer
}

func (c Checker) optimize(q core.Query, opts core.Options) (*core.Result, error) {
	opts.DiscardTable = true
	if c.Optimizer != nil {
		return c.Optimizer(q, opts)
	}
	return core.Optimize(q, opts)
}

// Tol is the default relative tolerance for cost comparisons between
// independent implementations: they multiply the same factors in different
// orders, so agreement is expected only up to accumulated rounding.
const Tol = 1e-9

// closeEnough reports whether a and b agree within relative tolerance tol.
// Equal values (including both +Inf) always agree; NaN never does.
func closeEnough(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// cardOf computes the reference cardinality of relation set s under q,
// independent of any DP table: the §5.1 induced-subgraph product for join
// graphs, the plain Cartesian product otherwise, and the §5.4 min-split
// recurrence for custom estimators.
func cardOf(q core.Query, s bitset.Set) float64 {
	if q.Graph != nil {
		return q.Graph.JoinCardinality(s, q.Cards)
	}
	if q.Estimator != nil {
		if s.IsSingleton() {
			return q.Cards[s.Min()]
		}
		u := s.MinSet()
		return q.Cards[u.Min()] * cardOf(q, s^u) * q.Estimator.StepFactor(s)
	}
	card := 1.0
	s.ForEach(func(i int) { card *= q.Cards[i] })
	return card
}

// EquivalentResults requires two optimization outcomes to be identical:
// matching errors, bitwise-equal costs and cardinalities, and Equal plan
// trees. It is the comparator behind the serial-vs-parallel and
// threshold-vs-unthresholded identities. compareCounters additionally
// requires equal instrumentation totals (the parallel fill merges per-worker
// counters exactly; threshold runs legitimately differ in pass counts).
func EquivalentResults(a *core.Result, aErr error, b *core.Result, bErr error, compareCounters bool) error {
	if (aErr == nil) != (bErr == nil) {
		return fmt.Errorf("check: one run failed, the other succeeded: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		if errors.Is(aErr, core.ErrNoPlan) != errors.Is(bErr, core.ErrNoPlan) {
			return fmt.Errorf("check: runs failed differently: %v vs %v", aErr, bErr)
		}
		return nil
	}
	if a.Cost != b.Cost {
		return fmt.Errorf("check: costs differ: %v vs %v", a.Cost, b.Cost)
	}
	if a.Cardinality != b.Cardinality {
		return fmt.Errorf("check: cardinalities differ: %v vs %v", a.Cardinality, b.Cardinality)
	}
	if !a.Plan.Equal(b.Plan) {
		return fmt.Errorf("check: plans differ:\n%v\nvs\n%v", a.Plan, b.Plan)
	}
	if compareCounters && a.Counters != b.Counters {
		return fmt.Errorf("check: counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	return nil
}
