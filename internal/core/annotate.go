package core

import (
	"math/bits"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// AnnotatePlan sets every node's Card and Cost from the plan's shape alone:
// each node gets the cardinality and cost that Optimize's table holds for
// the node's relation set, bit for bit, when the plan is the optimum of the
// query with base cardinalities cards and join predicates edges under model
// m. edges must have A < B and be sorted by (A, B), as Graph.Edges and the
// canonicalizer return them; a query without predicates passes none. A nil
// m means cost.Naive{}. The plan cache stores shapes only, and the engine
// re-derives the numbers with this on every hit.
//
// Bit-identity needs the fill's own arithmetic in its own order:
//   - cardinality: initProperty's recurrence, card[s] = (card[u]·card[v])·fan[s]
//     with u = {min s} and v = s − u, where fan[s] = sel(u, w)·fan[u ∪ z] for
//     w = {min v} and z = v − w, down to a doubleton's selectivity;
//   - cost: ((lc + rc) + κ″) + κ′, with κ″ as Table.splitDep computes it.
//
// plan.RecomputeCost and cost.Total add κ′ and κ″ in another order, so they
// are not bit-exact.
func AnnotatePlan(root *plan.Node, cards []float64, edges []joingraph.Edge, m cost.Model) {
	a := annotator{kernel: newKernel(m), cards: cards, edges: edges}
	// from[i] is where relation i's edges (i, b), b > i, start in edges.
	for _, e := range edges {
		a.from[e.A+1]++
	}
	for i := 1; i <= len(cards); i++ {
		a.from[i] += a.from[i-1]
	}
	a.node(root)
}

type annotator struct {
	kernel
	cards []float64
	edges []joingraph.Edge
	from  [bitset.MaxRelations + 1]int32
}

func (a *annotator) node(p *plan.Node) {
	if p.IsLeaf() {
		p.Card, p.Cost = a.cards[p.Rel], 0
		return
	}
	a.node(p.Left)
	a.node(p.Right)
	card := a.card(p.Set)
	d := p.Left.Cost + p.Right.Cost
	if !a.naive {
		d += a.splitDep(card, p.Left.Card, p.Right.Card)
	}
	p.Card = card
	p.Cost = d + a.model.SplitIndep(card)
}

// splitDep is Table.splitDep for operands of cardinality l and r: the
// table's memo column holds Memo of each set's cardinality.
func (a *annotator) splitDep(outCard, l, r float64) float64 {
	if a.memoized != nil {
		return a.memoized.SplitDepFromMemo(outCard, a.memoized.Memo(l), a.memoized.Memo(r))
	}
	if a.isDNL {
		return a.dnlSplitDep(l, r)
	}
	return a.model.SplitDep(outCard, l, r)
}

// card evaluates initProperty's recurrence for the one set s. With s's
// members m_1 < … < m_k, the recurrence peels the minimum at each step, so
// card[s] is built from the top: card[{m_k}], then for j = k−1 … 1,
// card[{m_j … m_k}] = (|m_j|·card[{m_j+1 … m_k}])·fan, where the fan is
// the product of sel(m_j, m_i) for i > j nested from i = k inward — how
// recurrence (10) unrolls. A pair without a predicate contributes a factor
// of 1, and starting the product at 1, so only m_j's edges into s, taken
// from the highest endpoint down, change bits.
func (a *annotator) card(s bitset.Set) float64 {
	var ms [bitset.MaxRelations]int
	k := 0
	for x := uint64(s); x != 0; x &= x - 1 {
		ms[k] = bits.TrailingZeros64(x)
		k++
	}
	card := a.cards[ms[k-1]]
	for j := k - 2; j >= 0; j-- {
		m := ms[j]
		fan := 1.0
		es := a.edges[a.from[m]:a.from[m+1]]
		for i := len(es) - 1; i >= 0; i-- {
			if s&(1<<uint(es[i].B)) != 0 {
				fan = es[i].Selectivity * fan
			}
		}
		card = a.cards[m] * card * fan
	}
	return card
}
