package check

import (
	"fmt"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/plan"
)

// WellFormed verifies the structural contract of a plan over n base
// relations: the root covers exactly {R₀, …, Rₙ₋₁}, every join node's
// children partition its relation set, and each base relation appears in
// exactly one leaf. It subsumes plan.Validate and adds the whole-query
// leaf-partition check that Validate (a per-subtree property) cannot state.
func WellFormed(n int, p *plan.Node) error {
	if p == nil {
		return fmt.Errorf("check: nil plan")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	full := bitset.Full(n)
	if p.Set != full {
		return fmt.Errorf("check: root covers %v, want %v", p.Set, full)
	}
	leaves := 0
	var seen bitset.Set
	var dup bool
	p.Walk(func(node *plan.Node) {
		if !node.IsLeaf() {
			return
		}
		leaves++
		if seen.Has(node.Rel) {
			dup = true
		}
		seen = seen.Add(node.Rel)
	})
	if dup {
		return fmt.Errorf("check: a base relation appears in more than one leaf")
	}
	if leaves != n || seen != full {
		return fmt.Errorf("check: leaves cover %v (%d leaves), want %v (%d)", seen, leaves, full, n)
	}
	return nil
}

// CostConsistent re-derives every number in a Result from first principles
// and compares: each plan node's cardinality against the reference estimate
// (JoinCardinality on the induced subgraph or the plain product — never the
// optimizer's fan recurrence), each node's cumulative cost against child
// costs + cost.Total under m, and the root against Result.Cost and
// Result.Cardinality. Comparisons use relative tolerance Tol: the reference
// multiplies the same factors in a different order than the DP fill.
func CostConsistent(q core.Query, m cost.Model, res *core.Result) error {
	if res == nil || res.Plan == nil {
		return fmt.Errorf("check: nil result or plan")
	}
	var walkErr error
	res.Plan.Walk(func(node *plan.Node) {
		if walkErr != nil {
			return
		}
		want := cardOf(q, node.Set)
		if !closeEnough(node.Card, want, Tol) {
			walkErr = fmt.Errorf("check: node %v records cardinality %v, reference says %v",
				node.Set, node.Card, want)
			return
		}
		if node.IsLeaf() {
			if node.Cost != 0 {
				walkErr = fmt.Errorf("check: leaf %v has cost %v, want 0", node.Set, node.Cost)
			}
			return
		}
		want = node.Left.Cost + node.Right.Cost +
			cost.Total(m, node.Card, node.Left.Card, node.Right.Card)
		if !closeEnough(node.Cost, want, Tol) {
			walkErr = fmt.Errorf("check: node %v records cost %v, recomputation says %v",
				node.Set, node.Cost, want)
		}
	})
	if walkErr != nil {
		return walkErr
	}
	if !closeEnough(res.Cost, res.Plan.Cost, Tol) {
		return fmt.Errorf("check: Result.Cost %v disagrees with root plan cost %v",
			res.Cost, res.Plan.Cost)
	}
	if !closeEnough(res.Cardinality, res.Plan.Card, Tol) {
		return fmt.Errorf("check: Result.Cardinality %v disagrees with root plan cardinality %v",
			res.Cardinality, res.Plan.Card)
	}
	return nil
}

// CountersExact checks the paper's closed-form operation counts on a clean
// single-pass run (Passes == 1, no threshold or overflow skips — otherwise
// the verifier is vacuously satisfied): SubsetsVisited = KpEvals = 2ⁿ−n−1,
// and LoopIters = 3ⁿ−2ⁿ⁺¹+1 for the bushy space (§3.3) or n·2ⁿ⁻¹−n for the
// left-deep restriction (§6.2).
func CountersExact(n int, leftDeep bool, c core.Counters) error {
	if c.Passes != 1 || c.ThresholdSkips != 0 {
		return nil
	}
	subsets := uint64(1)<<n - uint64(n) - 1
	if c.SubsetsVisited != subsets {
		return fmt.Errorf("check: SubsetsVisited = %d, closed form says %d", c.SubsetsVisited, subsets)
	}
	if c.KpEvals != subsets {
		return fmt.Errorf("check: KpEvals = %d, closed form says %d", c.KpEvals, subsets)
	}
	var loops uint64
	if leftDeep {
		loops = uint64(n)<<(n-1) - uint64(n)
	} else {
		pow3 := uint64(1)
		for i := 0; i < n; i++ {
			pow3 *= 3
		}
		loops = pow3 - uint64(1)<<(n+1) + 1
	}
	if c.LoopIters != loops {
		return fmt.Errorf("check: LoopIters = %d, closed form says %d", c.LoopIters, loops)
	}
	if c.CondHits > c.LoopIters {
		return fmt.Errorf("check: CondHits = %d exceeds LoopIters = %d", c.CondHits, c.LoopIters)
	}
	return nil
}
