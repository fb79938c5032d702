// Package hybrid implements optimizers for queries beyond exhaustive reach —
// the direction the paper's §7 sketches as future work ("a hybrid method …
// combines dynamic programming with randomized search"):
//
//   - Greedy: greedy operator ordering (GOO) — repeatedly join the pair of
//     units with the smallest resulting cardinality. Linear-ish, any n,
//     no optimality guarantee. The weakest and fastest point of reference.
//   - IDP: iterative dynamic programming with block size k. Runs the
//     blitzsplit-style DP over subsets of at most k units, materializes the
//     best k-unit subplan as a compound unit, and repeats until one unit
//     remains. k = n degenerates to exact blitzsplit; smaller k trades plan
//     quality for time. (IDP-1 in later literature; the natural DP-side half
//     of the paper's hybrid.)
//   - ChainedLocal: IDP followed by randomized hill-climbing from the IDP
//     plan — the full §7 hybrid shape: a strong deterministic seed polished
//     by local search.
package hybrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/ccp"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// Result is the outcome of a hybrid optimization.
type Result struct {
	// Plan is the best plan found (leaves are the original base relations).
	Plan *plan.Node
	// Cost is the plan's estimated cost.
	Cost float64
	// DPRounds counts the bounded-DP invocations (IDP/ChainedLocal only).
	DPRounds int
	// Considered counts plans/subsets costed across all phases.
	Considered uint64
}

func validate(cards []float64, g *joingraph.Graph) error {
	n := len(cards)
	if n == 0 {
		return errors.New("hybrid: no relations")
	}
	if n > bitset.MaxRelations {
		return fmt.Errorf("hybrid: %d relations exceeds maximum %d", n, bitset.MaxRelations)
	}
	if g != nil && g.N() != n {
		return fmt.Errorf("hybrid: graph covers %d relations, query has %d", g.N(), n)
	}
	return nil
}

// unit is a committed subplan acting as a pseudo-relation.
type unit struct {
	tree *plan.Node // leaves are original relations
	card float64
	cost float64 // cumulative cost of the subplan
}

// selBetween returns the product of selectivities of predicates spanning the
// two units' relation sets (1 when g is nil).
func selBetween(g *joingraph.Graph, a, b bitset.Set) float64 {
	if g == nil {
		return 1
	}
	return g.SpanProduct(a, b)
}

// Greedy implements greedy operator ordering: among all unit pairs, join the
// one with the smallest output cardinality (ties: smaller combined cost),
// until one unit remains.
func Greedy(cards []float64, g *joingraph.Graph, m cost.Model) (*Result, error) {
	if err := validate(cards, g); err != nil {
		return nil, err
	}
	units := make([]unit, len(cards))
	for i, c := range cards {
		units[i] = unit{tree: plan.Leaf(i, c), card: c}
	}
	var considered uint64
	for len(units) > 1 {
		bestI, bestJ := -1, -1
		bestCard := math.Inf(1)
		for i := 0; i < len(units); i++ {
			for j := i + 1; j < len(units); j++ {
				considered++
				out := units[i].card * units[j].card * selBetween(g, units[i].tree.Set, units[j].tree.Set)
				if out < bestCard {
					bestCard = out
					bestI, bestJ = i, j
				}
			}
		}
		a, b := units[bestI], units[bestJ]
		joined := unit{
			tree: &plan.Node{
				Set:  a.tree.Set.Union(b.tree.Set),
				Card: bestCard,
				Left: a.tree, Right: b.tree,
			},
			card: bestCard,
			cost: a.cost + b.cost + cost.Total(m, bestCard, a.card, b.card),
		}
		joined.tree.Cost = joined.cost
		units[bestJ] = units[len(units)-1]
		units = units[:len(units)-1]
		units[bestI] = joined
	}
	root := units[0].tree
	return &Result{Plan: root, Cost: units[0].cost, Considered: considered}, nil
}

// IDPOptions configures IDP and ChainedLocal.
type IDPOptions struct {
	// K is the DP block size (2 ≤ K ≤ 20-ish; table work grows as 3^K).
	// 0 means 10. A round over u units holds one 24-byte entry per subset
	// of at most K units, Σ_{k≤K} C(u, k) in all: 0.77M entries (17.6 MiB)
	// at u = 30 and K = 6.
	K int
	// Stochastic configures the ChainedLocal polishing phase.
	Stochastic baseline.StochasticOptions
	// Ctx, when non-nil, bounds the run cooperatively: its cancellation or
	// deadline is checked at every IDP round boundary, every
	// ctxCheckStride subsets inside a round's DP, and before the
	// ChainedLocal polishing phase, returning ctx.Err(). A run therefore
	// stops within one stride, not one round: at 22 units and K = 6 a round
	// scans about 110k subsets.
	Ctx context.Context
	// Enumerator selects each round's split enumeration. With EnumeratorCCP
	// or EnumeratorAuto a round whose contracted unit graph is connected
	// restricts the bounded DP to connected-complement pairs — the CCP
	// restriction applied locally, skipping Cartesian splits the unit graph
	// never needs. Rounds without a graph or with a disconnected unit graph
	// fall back to the full scan: the hybrid is heuristic, so unlike
	// core.Optimize an explicit CCP request here degrades instead of
	// erroring. The default (EnumeratorBlitz) scans every bipartition.
	Enumerator core.Enumerator
}

// ctxCheckStride is how many subsets boundedDP fills between context
// checks, the stride core's fill uses.
const ctxCheckStride = 1024

// ctxErr reports the context's error, nil when no context is set.
func (o IDPOptions) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o IDPOptions) k() int {
	if o.K <= 0 {
		return 10
	}
	if o.K < 2 {
		return 2
	}
	return o.K
}

// IDP runs iterative dynamic programming with block size k.
func IDP(cards []float64, g *joingraph.Graph, m cost.Model, opts IDPOptions) (*Result, error) {
	if err := validate(cards, g); err != nil {
		return nil, err
	}
	k := opts.k()
	units := make([]unit, len(cards))
	for i, c := range cards {
		units[i] = unit{tree: plan.Leaf(i, c), card: c}
	}
	res := &Result{}
	for len(units) > 1 {
		faultinject.Inject(faultinject.HybridRound)
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.DPRounds++
		block := k
		if len(units) < block {
			block = len(units)
		}
		best, count, err := boundedDP(opts, units, g, m, block)
		if err != nil {
			return nil, err
		}
		res.Considered += count
		// Collapse the chosen subplan into one unit.
		var next []unit
		for _, u := range units {
			if !u.tree.Set.SubsetOf(best.tree.Set) {
				next = append(next, u)
			}
		}
		next = append(next, best)
		if len(next) >= len(units) {
			return nil, errors.New("hybrid: IDP failed to make progress")
		}
		units = next
	}
	res.Plan = units[0].tree
	res.Cost = units[0].cost
	return res, nil
}

// layout gives each subset of 1 … block of u units its own position in
// [0, size): subsets are ordered by size, then colex within a size. A
// k-subset with members c_1 < … < c_k sits at off[k] + Σ C(c_i, i), so the
// singleton {i} sits at i. Gosper's hack (bitset.NextKSubset) visits the
// subsets of one size in this order, so a walk over a size takes
// consecutive positions. A round's tables thus hold Σ_{k≤block} C(u, k)
// entries instead of 2^u.
type layout struct {
	off  []int   // off[k]: the number of subsets of 1 … k−1 units
	step [][]int // step[c][i] = C(c, i) + off[i] − off[i−1], member c's share as a subset's i-th
	size int
}

func newLayout(u, block int) layout {
	lay := layout{off: make([]int, block+2), step: make([][]int, u)}
	for k := 1; k <= block; k++ {
		lay.off[k+1] = lay.off[k] + int(bitset.Binomial(u, k))
	}
	lay.size = lay.off[block+1]
	for c := range lay.step {
		row := make([]int, block+1)
		for i := 1; i <= block; i++ {
			row[i] = int(bitset.Binomial(c, i)) + lay.off[i] - lay.off[i-1]
		}
		lay.step[c] = row
	}
	return lay
}

// pos returns the position of s, which holds 1 … block units: the sum of
// its members' steps, in which the off differences telescope to off[|s|].
func (lay *layout) pos(s bitset.Set) int {
	p := 0
	for i := 1; s != 0; i++ {
		p += lay.step[s.Min()][i]
		s &= s - 1
	}
	return p
}

// subsetPositions sets at[j], for every j < 2^|s|, to the position of the
// subset of s that the contracted mask j selects: bit b of j selects s's
// (b+1)-th smallest member, so at[2^|s| − 1] is s's own position. Each entry
// is an entry with one bit fewer plus one step. at[0], the empty set, is 0.
func (lay *layout) subsetPositions(s bitset.Set, at []int) {
	at[0] = 0
	for lo := 1; s != 0; lo, s = 2*lo, s&(s-1) {
		row := lay.step[s.Min()]
		for j := lo; j < 2*lo; j++ {
			at[j] = at[j-lo] + row[bits.OnesCount(uint(j))]
		}
	}
}

// unitAdjacency builds the contracted unit graph: units are adjacent exactly
// when some join edge spans their relation sets, so connectivity over units
// coincides with connectivity of the underlying relations under contraction.
func unitAdjacency(units []unit, g *joingraph.Graph) ccp.Adjacency {
	adj := make(ccp.Adjacency, len(units))
	for i := range units {
		var frontier bitset.Set
		units[i].tree.Set.ForEach(func(r int) { frontier |= g.Neighbors(r) })
		var nb bitset.Set
		for j := range units {
			if j != i && frontier&units[j].tree.Set != 0 {
				nb = nb.Add(j)
			}
		}
		adj[i] = nb
	}
	return adj
}

// boundedDP runs the blitzsplit DP over subsets of at most `block` units and
// returns the best block-sized compound unit (or the full plan when block
// covers every unit). Subsets are bitsets over *unit indexes*, stored at
// their layout positions in tables made for this round. It checks opts.Ctx
// every ctxCheckStride subsets and returns its error.
func boundedDP(opts IDPOptions, units []unit, g *joingraph.Graph, m cost.Model, block int) (unit, uint64, error) {
	u := len(units)
	if u > bitset.MaxRelations {
		return unit{}, 0, fmt.Errorf("hybrid: %d units exceed the bitset capacity", u)
	}
	// Under a CCP enumerator, build the contracted unit graph (units adjacent
	// when any join edge spans their relation sets) and, when it is
	// connected, restrict this round's DP to connected-complement pairs. A
	// non-nil unitAdj is the guard's switch; per-subset BFS connectivity is
	// cheap at block ≤ 10 and a connected unit graph always contains a
	// connected subset of every size, so the round's winner always exists.
	var unitAdj ccp.Adjacency
	if opts.Enumerator != core.EnumeratorBlitz && g != nil {
		unitAdj = unitAdjacency(units, g)
		if !unitAdj.Connected(bitset.Full(u)) {
			unitAdj = nil
		}
	}
	// Pairwise selectivities between units.
	sel := make([][]float64, u)
	for i := range sel {
		sel[i] = make([]float64, u)
		for j := range sel[i] {
			if i == j {
				sel[i][j] = 1
			} else {
				sel[i][j] = selBetween(g, units[i].tree.Set, units[j].tree.Set)
			}
		}
	}
	// Per-subset arrays at layout positions, 24 bytes per subset (card +
	// interleaved cost/lhs slot). The singleton {i} sits at position i.
	lay := newLayout(u, block)
	cardT := make([]float64, lay.size)
	slotT := make([]core.Slot, lay.size)
	for i := range units {
		cardT[i] = units[i].card
		slotT[i] = core.Slot{Cost: units[i].cost}
	}
	at := make([]int, 1<<uint(block-1))
	var considered uint64
	visited := 0
	// Subsets by ascending size so halves always exist; within a size,
	// Gosper's hack walks them in layout order, so s sits at p.
	for sz := 2; sz <= block; sz++ {
		s := bitset.FirstKSubset(sz)
		for p := lay.off[sz]; p < lay.off[sz+1]; p, s = p+1, bitset.NextKSubset(s) {
			if visited++; visited%ctxCheckStride == 0 {
				if err := opts.ctxErr(); err != nil {
					return unit{}, 0, err
				}
			}
			// Cardinality via the unit-level fan: min unit × rest.
			mi := s.Min()
			rest := s.Remove(mi)
			fan := 1.0
			rest.ForEach(func(j int) { fan *= sel[mi][j] })
			card := cardT[mi] * cardT[lay.pos(rest)] * fan
			if unitAdj != nil && !unitAdj.Connected(s) {
				// Cartesian-only subset: excluded from the CP-free space. The
				// Inf slot must be written (not skipped): the winner scan
				// reads every block-sized entry, and a zero would read as a
				// free plan.
				cardT[p] = card
				slotT[p] = core.Slot{Cost: math.Inf(1)}
				continue
			}
			// Each unordered split {l, s^l} is visited once, as the side l
			// without s's highest unit, and costed in both orientations: the
			// pair shares its table loads, its connectivity test and its
			// pruning test, and κ′ is computed once per subset. Equal costs
			// go to the lower LHS, the winner of an ascending scan over
			// every LHS, so plans and costs are those of that scan. l is the
			// subset of low at contracted mask j, so at[j] is its position;
			// s^l is low's subset at mask full−j plus top, its largest
			// member, so its position adds top's step for its size.
			low := s.Remove(s.Max())
			lay.subsetPositions(low, at)
			top := lay.step[s.Max()]
			full := 1<<uint(sz-1) - 1
			kp := m.SplitIndep(card)
			best := math.Inf(1)
			var bestLHS bitset.Set
			for l, j := low.MinSet(), 1; ; l, j = low.NextSubset(l), j+1 {
				r := s ^ l
				if unitAdj == nil || (unitAdj.Connected(l) && unitAdj.Connected(r)) {
					considered += 2
					lp, rp := at[j], at[full-j]+top[sz-bits.OnesCount(uint(j))]
					lc, rc := slotT[lp].Cost, slotT[rp].Cost
					if sum := lc + rc; sum <= best {
						cl, cr := cardT[lp], cardT[rp]
						if total := sum + (kp + m.SplitDep(card, cl, cr)); total < best || (total == best && l < bestLHS) {
							best, bestLHS = total, l
						}
						if total := sum + (kp + m.SplitDep(card, cr, cl)); total < best || (total == best && r < bestLHS) {
							best, bestLHS = total, r
						}
					}
				}
				if l == low {
					break
				}
			}
			cardT[p] = card
			slotT[p] = core.Slot{Cost: best, BestLHS: uint32(bestLHS)}
		}
	}
	// Choose the winning subset: the full set if covered, else the cheapest
	// block-sized subset (ties: smallest cardinality, then smallest set
	// value for determinism).
	var winner bitset.Set
	if block == u {
		winner = bitset.Full(u)
	} else {
		bestCost, bestCard := math.Inf(1), math.Inf(1)
		s := bitset.FirstKSubset(block)
		for p := lay.off[block]; p < lay.size; p, s = p+1, bitset.NextKSubset(s) {
			c := slotT[p].Cost
			if c < bestCost || (c == bestCost && (cardT[p] < bestCard ||
				(cardT[p] == bestCard && s < winner))) {
				winner, bestCost, bestCard = s, c, cardT[p]
			}
		}
	}
	// Stitch the winner's tree out of the table and the unit subtrees.
	var build func(s bitset.Set) *plan.Node
	build = func(s bitset.Set) *plan.Node {
		if s.IsSingleton() {
			return units[s.Min()].tree
		}
		p := lay.pos(s)
		lhs := bitset.Set(slotT[p].BestLHS)
		left := build(lhs)
		right := build(s ^ lhs)
		return &plan.Node{
			Set:  left.Set.Union(right.Set),
			Card: cardT[p],
			Cost: slotT[p].Cost,
			Left: left, Right: right,
		}
	}
	tree := build(winner)
	return unit{tree: tree, card: tree.Card, cost: tree.Cost}, considered, nil
}

// ChainedLocal is the paper's §7 hybrid: an IDP seed plan polished by
// randomized hill-climbing over the full bushy plan space.
func ChainedLocal(cards []float64, g *joingraph.Graph, m cost.Model, opts IDPOptions) (*Result, error) {
	seed, err := IDP(cards, g, m, opts)
	if err != nil {
		return nil, err
	}
	if err := opts.ctxErr(); err != nil {
		// Out of budget after the DP phase: the IDP seed plan is already
		// valid and near-optimal; skip polishing rather than fail.
		return seed, nil
	}
	improved, climbed := baseline.HillClimbFrom(seed.Plan, cards, g, m, opts.Stochastic)
	res := &Result{
		Plan:       improved,
		Cost:       improved.Cost,
		DPRounds:   seed.DPRounds,
		Considered: seed.Considered + climbed,
	}
	if seed.Cost < res.Cost {
		// Hill climbing never worsens, but guard against recompute drift.
		res.Plan, res.Cost = seed.Plan, seed.Cost
	}
	return res, nil
}
