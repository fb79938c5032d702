package baseline

import (
	"math"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// GreedyLeftDeep builds a left-deep plan with the minimum-intermediate-result
// heuristic: start from the smallest base relation and repeatedly join in the
// base relation that minimizes the next intermediate cardinality (ties:
// smaller join cost, then lower index). Cartesian products are allowed, so it
// never fails on disconnected graphs. O(n²) work and O(n) space — the bottom
// rung of the facade's degradation ladder, cheap enough to run after any
// budget has already expired.
//
// The returned plan carries §5.1-consistent cardinalities (the per-step span
// products telescope into the induced-subgraph product) and cost.Total-based
// cumulative costs, so it passes the internal/check consistency verifiers
// like every other optimizer's output.
func GreedyLeftDeep(cards []float64, g *joingraph.Graph, m cost.Model) (*Result, error) {
	if err := validate(cards, g); err != nil {
		return nil, err
	}
	n := len(cards)
	first := 0
	for i := 1; i < n; i++ {
		if cards[i] < cards[first] {
			first = i
		}
	}
	tree := plan.Leaf(first, cards[first])
	used := make([]bool, n)
	used[first] = true
	var considered uint64
	for joined := 1; joined < n; joined++ {
		best := -1
		bestCard, bestCost := math.Inf(1), math.Inf(1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			considered++
			span := 1.0
			if g != nil {
				span = g.SpanProduct(tree.Set, bitset.Single(i))
			}
			outCard := tree.Card * cards[i] * span
			outCost := cost.Total(m, outCard, tree.Card, cards[i])
			// best < 0 takes the first candidate when none compares below
			// +Inf (every product overflows), so the plan is still built.
			if best < 0 || outCard < bestCard || (outCard == bestCard && outCost < bestCost) {
				best, bestCard, bestCost = i, outCard, outCost
			}
		}
		leaf := plan.Leaf(best, cards[best])
		tree = &plan.Node{
			Set:   tree.Set.Union(leaf.Set),
			Card:  bestCard,
			Cost:  tree.Cost + bestCost,
			Left:  tree,
			Right: leaf,
		}
		used[best] = true
	}
	return &Result{Plan: tree, Cost: tree.Cost, Considered: considered}, nil
}

// Seed is the §6.4 seed of an exact search: the greedy left-deep plan and
// the plan-cost threshold it justifies. The greedy plan's cost bounds the
// optimum from above whenever that plan lies in the searched space, and
// every cost model adds non-negative terms, so a threshold just above it
// keeps every subplan of the optimum while the pruning skips the rest: one
// pass finds the exact optimum. productFree says the search covers only
// plans without Cartesian products (the CCP enumerator); the greedy plan
// lies in that space only when each relation it adds has a neighbour among
// those it joins. Outside the space the threshold is 0, meaning none: a
// product-using greedy plan can undercut the product-free optimum and force
// retry passes. The greedy plan is returned either way; it is also the
// ladder's floor.
func Seed(cards []float64, g *joingraph.Graph, m cost.Model, productFree bool) (*Result, float64, error) {
	greedy, err := GreedyLeftDeep(cards, g, m)
	if err != nil {
		return nil, 0, err
	}
	if productFree {
		for n := greedy.Plan; !n.IsLeaf(); n = n.Left {
			if g == nil || !g.Neighbors(n.Right.Rel).Overlaps(n.Left.Set) {
				return greedy, 0, nil
			}
		}
	}
	// Strictly above the bound, so a plan costing exactly the greedy cost
	// survives the threshold pass's strict comparisons.
	return greedy, greedy.Cost*(1+1e-9) + math.SmallestNonzeroFloat64, nil
}
