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
	// 0 means 10.
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
	// Arena, when non-nil, supplies the bounded DP's scratch columns from a
	// pooled core.Table instead of package-private slices. The table is
	// returned to the arena on every exit path — including mid-run
	// cancellation — so a deadline-aborted IDP never strands a checkout
	// (the ladder leak the arena was introduced to fix).
	Arena *core.Arena
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
	var sc dpScratch // shared across rounds: the 2^u tables are re-made once, not per round
	if opts.Arena != nil {
		// The first (largest) round runs the DP over all len(units) units, so
		// one checkout sized for it serves every later round via Reset. The
		// deferred Put covers cancellation between rounds.
		sc.tbl = opts.Arena.Get(len(units), false, nil)
		defer opts.Arena.Put(sc.tbl)
	}
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
		best, count, err := boundedDP(opts, units, g, m, block, &sc)
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

// dpScratch holds boundedDP's per-round tables for reuse across IDP rounds:
// without it every round re-makes three 2^u-element slices plus the subset
// work lists, and the first (largest-u) rounds dominate the allocation bill.
// Capacities only shrink as IDP collapses units, so after round one the DP
// runs allocation-free.
type dpScratch struct {
	// tbl, when non-nil, backs card/slots with an arena-pooled core.Table
	// (via ScratchColumns) instead of private slices.
	tbl    *core.Table
	card   []float64
	slots  []core.Slot
	sel    [][]float64
	bySize [][]bitset.Set
	adj    ccp.Adjacency // unit-graph adjacency under a CCP enumerator
}

// resize readies the scratch for u units and the given block, reusing
// backing arrays whose capacity suffices. Stale contents are harmless for
// the same reason core.Table.Reset's are: every entry the DP reads is
// written first (singletons here, larger subsets in ascending-size order).
func (sc *dpScratch) resize(u, block int) {
	if sc.tbl != nil {
		sc.card, sc.slots = sc.tbl.ScratchColumns(u)
	} else {
		size := 1 << uint(u)
		if cap(sc.card) >= size {
			sc.card = sc.card[:size]
		} else {
			sc.card = make([]float64, size)
		}
		if cap(sc.slots) >= size {
			sc.slots = sc.slots[:size]
		} else {
			sc.slots = make([]core.Slot, size)
		}
	}
	if cap(sc.sel) >= u {
		sc.sel = sc.sel[:u]
	} else {
		sc.sel = make([][]float64, u)
	}
	for i := range sc.sel {
		if cap(sc.sel[i]) >= u {
			sc.sel[i] = sc.sel[i][:u]
		} else {
			sc.sel[i] = make([]float64, u)
		}
	}
	if cap(sc.bySize) >= block+1 {
		sc.bySize = sc.bySize[:block+1]
	} else {
		sc.bySize = make([][]bitset.Set, block+1)
	}
	for i := range sc.bySize {
		sc.bySize[i] = sc.bySize[i][:0]
	}
}

// unitAdjacency builds the contracted unit graph into the scratch: units are
// adjacent exactly when some join edge spans their relation sets, so
// connectivity over units coincides with connectivity of the underlying
// relations under contraction.
func (sc *dpScratch) unitAdjacency(units []unit, g *joingraph.Graph) ccp.Adjacency {
	u := len(units)
	if cap(sc.adj) >= u {
		sc.adj = sc.adj[:u]
	} else {
		sc.adj = make(ccp.Adjacency, u)
	}
	for i := range units {
		var frontier bitset.Set
		units[i].tree.Set.ForEach(func(r int) { frontier |= g.Neighbors(r) })
		var nb bitset.Set
		for j := range units {
			if j != i && frontier&units[j].tree.Set != 0 {
				nb = nb.Add(j)
			}
		}
		sc.adj[i] = nb
	}
	return sc.adj
}

// boundedDP runs the blitzsplit DP over subsets of at most `block` units and
// returns the best block-sized compound unit (or the full plan when block
// covers every unit). Subsets are keyed by bitsets over *unit indexes*; the
// tables live in sc and are reused across rounds. It checks opts.Ctx every
// ctxCheckStride subsets and returns its error.
func boundedDP(opts IDPOptions, units []unit, g *joingraph.Graph, m cost.Model, block int, sc *dpScratch) (unit, uint64, error) {
	u := len(units)
	if u > bitset.MaxRelations {
		return unit{}, 0, fmt.Errorf("hybrid: %d units exceed the bitset capacity", u)
	}
	sc.resize(u, block)
	// Under a CCP enumerator, build the contracted unit graph (units adjacent
	// when any join edge spans their relation sets) and, when it is
	// connected, restrict this round's DP to connected-complement pairs. A
	// non-nil unitAdj is the guard's switch; per-subset BFS connectivity is
	// cheap at block ≤ 10 and a connected unit graph always contains a
	// connected subset of every size, so the round's winner always exists.
	var unitAdj ccp.Adjacency
	if opts.Enumerator != core.EnumeratorBlitz && g != nil {
		unitAdj = sc.unitAdjacency(units, g)
		if !unitAdj.Connected(bitset.Full(u)) {
			unitAdj = nil
		}
	}
	// Pairwise selectivities between units.
	sel := sc.sel
	for i := range sel {
		for j := range sel[i] {
			if i == j {
				sel[i][j] = 1
			} else {
				sel[i][j] = selBetween(g, units[i].tree.Set, units[j].tree.Set)
			}
		}
	}
	// Dense per-subset arrays keyed by the unit-index bitset. 2^u entries at
	// 24 bytes each (card + interleaved cost/lhs slot) caps usable u well
	// inside bitset.MaxRelations; IDP's block collapsing shrinks u every
	// round, so only the first rounds pay.
	cardT := sc.card
	slotT := sc.slots
	for i := range units {
		s := bitset.Single(i)
		cardT[s] = units[i].card
		slotT[s] = core.Slot{Cost: units[i].cost}
	}
	var considered uint64
	visited := 0
	// Subsets by ascending size so halves always exist.
	bySize := sc.bySize
	var gen func(start int, cur bitset.Set, size int)
	gen = func(start int, cur bitset.Set, size int) {
		if size >= 2 {
			bySize[size] = append(bySize[size], cur)
		}
		if size == block {
			return
		}
		for i := start; i < u; i++ {
			gen(i+1, cur.Add(i), size+1)
		}
	}
	gen(0, 0, 0)
	for sz := 2; sz <= block; sz++ {
		for _, s := range bySize[sz] {
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
			card := cardT[bitset.Single(mi)] * cardT[rest] * fan
			if unitAdj != nil && !unitAdj.Connected(s) {
				// Cartesian-only subset: excluded from the CP-free space. The
				// Inf slot must be written (not skipped) — the winner scan and
				// reused scratch would otherwise read stale garbage.
				cardT[s] = card
				slotT[s] = core.Slot{Cost: math.Inf(1)}
				continue
			}
			// Each unordered split {l, s^l} is visited once, as the side l
			// without s's highest unit, and costed in both orientations: the
			// pair shares its table loads, its connectivity test and its
			// pruning test, and κ′ is computed once per subset. Equal costs
			// go to the lower LHS, the winner of an ascending scan over
			// every LHS, so plans and costs are those of that scan.
			kp := m.SplitIndep(card)
			best := math.Inf(1)
			var bestLHS bitset.Set
			low := s.Remove(s.Max())
			for l := low.MinSet(); ; l = low.NextSubset(l) {
				r := s ^ l
				if unitAdj == nil || (unitAdj.Connected(l) && unitAdj.Connected(r)) {
					considered += 2
					lc, rc := slotT[l].Cost, slotT[r].Cost
					if sum := lc + rc; sum <= best {
						cl, cr := cardT[l], cardT[r]
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
			cardT[s] = card
			slotT[s] = core.Slot{Cost: best, BestLHS: uint32(bestLHS)}
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
		for _, s := range bySize[block] {
			c := slotT[s].Cost
			if c < bestCost || (c == bestCost && (cardT[s] < bestCard ||
				(cardT[s] == bestCard && s < winner))) {
				winner, bestCost, bestCard = s, c, cardT[s]
			}
		}
	}
	// Stitch the winner's tree out of the table and the unit subtrees.
	var build func(s bitset.Set) *plan.Node
	build = func(s bitset.Set) *plan.Node {
		if s.IsSingleton() {
			return units[s.Min()].tree
		}
		lhs := bitset.Set(slotT[s].BestLHS)
		left := build(lhs)
		right := build(s ^ lhs)
		return &plan.Node{
			Set:  left.Set.Union(right.Set),
			Card: cardT[s],
			Cost: slotT[s].Cost,
			Left: left, Right: right,
		}
	}
	tree := build(winner)
	return unit{tree: tree, card: cardT[winner], cost: slotT[winner].Cost}, considered, nil
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
