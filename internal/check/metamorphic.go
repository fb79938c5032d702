package check

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/core"
	"blitzsplit/internal/joingraph"
)

// permTol is the tolerance for permutation invariance: relabeling reorders
// every product and sum the optimizer computes, so costs agree only up to
// accumulated rounding, unlike the bitwise metamorphic identities below.
const permTol = 1e-6

// permuteQuery relabels q's relations so that old relation i becomes new
// relation perm[i], rebuilding the join graph edge by edge.
func permuteQuery(q core.Query, perm []int) core.Query {
	n := len(q.Cards)
	cards := make([]float64, n)
	for i, c := range q.Cards {
		cards[perm[i]] = c
	}
	var g *joingraph.Graph
	if q.Graph != nil {
		g = joingraph.New(n)
		for _, e := range q.Graph.Edges() {
			g.MustAddEdge(perm[e.A], perm[e.B], e.Selectivity)
		}
	}
	return core.Query{Cards: cards, Graph: g}
}

// PermutationInvariant checks that relabeling the base relations does not
// change the optimal cost: the plan spaces are isomorphic, so the optima are
// mathematically equal, though only within permTol in floating point. When
// one labeling succeeds and the other fails — or they disagree — near the
// overflow limit, the run is forgiven: rounding can push a near-limit
// optimum across the acceptance boundary.
func (c Checker) PermutationInvariant(q core.Query, opts core.Options, perm []int) error {
	if len(perm) != len(q.Cards) {
		return errors.New("check: permutation length does not match relation count")
	}
	limit := effectiveLimit(opts)
	base, baseErr := c.optimize(q, opts)
	permuted, permErr := c.optimize(permuteQuery(q, perm), opts)
	baseCost, err := costOrNoPlan(base, baseErr)
	if err != nil {
		return err
	}
	permCost, err := costOrNoPlan(permuted, permErr)
	if err != nil {
		return err
	}
	if math.IsInf(baseCost, 1) != math.IsInf(permCost, 1) {
		finite := math.Min(baseCost, permCost)
		if finite > limit/4 {
			return nil // near the acceptance boundary; not judged
		}
		return fmt.Errorf("check: permutation %v flipped the outcome: cost %v vs %v under limit %v",
			perm, baseCost, permCost, limit)
	}
	if !closeEnough(baseCost, permCost, permTol) {
		return fmt.Errorf("check: permutation %v changed the optimal cost: %v vs %v",
			perm, baseCost, permCost)
	}
	return nil
}

// SelectivityOneNeutral checks that adding a selectivity-1.0 predicate
// between relations a and b changes nothing: every affected cardinality
// picks up an exact ×1.0 factor, so costs, tie-breaking, and therefore the
// chosen plan are bit-identical — this verifier demands exact equality, not
// tolerance. A nil graph is promoted to an edgeless one first.
func (c Checker) SelectivityOneNeutral(q core.Query, opts core.Options, a, b int) error {
	n := len(q.Cards)
	if a == b || a < 0 || b < 0 || a >= n || b >= n {
		return fmt.Errorf("check: invalid relation pair (%d, %d)", a, b)
	}
	if q.Graph != nil && q.Graph.HasEdge(a, b) {
		return fmt.Errorf("check: pair (%d, %d) already has a predicate", a, b)
	}
	g := joingraph.New(n)
	if q.Graph != nil {
		for _, e := range q.Graph.Edges() {
			g.MustAddEdge(e.A, e.B, e.Selectivity)
		}
	}
	g.MustAddEdge(a, b, 1)
	base, baseErr := c.optimize(q, opts)
	aug, augErr := c.optimize(core.Query{Cards: q.Cards, Graph: g}, opts)
	if err := EquivalentResults(base, baseErr, aug, augErr, false); err != nil {
		return fmt.Errorf("adding selectivity-1 edge (%d,%d): %w", a, b, err)
	}
	return nil
}

// ScalingMonotone checks that scaling every base cardinality by λ ≥ 1 never
// decreases the optimal cost: every model's κ is nondecreasing in its
// cardinalities, IEEE multiplication rounds monotonically, and min preserves
// monotonicity, so the scaled optimum dominates plan by plan. The tiny slack
// absorbs the Min composite's clamped κ-decomposition arithmetic. A query
// with no plan under the overflow limit must still have none after scaling
// up.
func (c Checker) ScalingMonotone(q core.Query, opts core.Options, lambda float64) error {
	if lambda < 1 || math.IsInf(lambda, 1) || math.IsNaN(lambda) {
		return fmt.Errorf("check: scale factor must be in [1, ∞), got %v", lambda)
	}
	scaled := make([]float64, len(q.Cards))
	for i, card := range q.Cards {
		scaled[i] = card * lambda
	}
	base, baseErr := c.optimize(q, opts)
	big, bigErr := c.optimize(core.Query{Cards: scaled, Graph: q.Graph}, opts)
	baseCost, err := costOrNoPlan(base, baseErr)
	if err != nil {
		return err
	}
	bigCost, err := costOrNoPlan(big, bigErr)
	if err != nil {
		return err
	}
	if math.IsInf(baseCost, 1) && !math.IsInf(bigCost, 1) {
		return fmt.Errorf("check: no plan at original cardinalities but cost %v after scaling by %v up",
			bigCost, lambda)
	}
	if math.IsInf(bigCost, 1) {
		return nil // scaled query overflowed; vacuously monotone
	}
	if bigCost < baseCost*(1-Tol) {
		return fmt.Errorf("check: scaling cardinalities by %v decreased the optimal cost: %v → %v",
			lambda, baseCost, bigCost)
	}
	return nil
}

// costOrNoPlan folds an optimizer outcome into a single cost: the result's
// cost on success, +Inf on ErrNoPlan, and a hard error otherwise.
func costOrNoPlan(res *core.Result, err error) (float64, error) {
	if err != nil {
		if errors.Is(err, core.ErrNoPlan) {
			return math.Inf(1), nil
		}
		return 0, fmt.Errorf("check: optimizer failed unexpectedly: %w", err)
	}
	return res.Cost, nil
}

// effectiveLimit mirrors core's Options.OverflowLimit defaulting.
func effectiveLimit(opts core.Options) float64 {
	if opts.OverflowLimit <= 0 {
		return math.MaxFloat32
	}
	return opts.OverflowLimit
}
