package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// This file implements the stochastic searches the paper's related-work
// section discusses via Steinbrunn's survey: iterative improvement and
// simulated annealing over the space of bushy plan trees, navigated with the
// classic transformation rules (commutativity, associativity, and the
// bushy exchange move). The paper's §2 observation — stochastic searches
// converge on good plans but take substantial time to do so, making
// exhaustive search the method of choice into the mid-teens — is reproduced
// by benchmarking these against blitzsplit.

// The annealing schedule; SimulatedAnnealing documents its start.
const (
	// coolingRate multiplies the temperature after each level.
	coolingRate = 0.95
	// minTemperatureRatio stops annealing once the temperature falls below
	// this fraction of its start.
	minTemperatureRatio = 1e-6
)

// maxMovesPerClimb bounds the moves within one hill climb: 50·n².
func maxMovesPerClimb(n int) int { return 50 * n * n }

// stepsPerTemperature is the number of moves annealing proposes at each
// temperature level: 16·n.
func stepsPerTemperature(n int) int { return 16 * n }

// StochasticOptions configures the randomized searches. Zero values select
// documented defaults.
type StochasticOptions struct {
	// Seed makes runs reproducible; 0 means seed 1.
	Seed int64
	// Restarts is the number of independent starts for iterative improvement
	// (default 10).
	Restarts int
}

func (o StochasticOptions) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o StochasticOptions) restarts() int {
	if o.Restarts <= 0 {
		return 10
	}
	return o.Restarts
}

// RandomPlan builds a uniformly shaped random bushy tree over the relations:
// it keeps a forest of subtrees and repeatedly joins two random ones.
// Exported for tests and for seeding external search strategies.
func RandomPlan(cards []float64, g *joingraph.Graph, m cost.Model, rng *rand.Rand) *plan.Node {
	forest := make([]*plan.Node, len(cards))
	for i := range cards {
		forest[i] = plan.Leaf(i, cards[i])
	}
	for len(forest) > 1 {
		i := rng.Intn(len(forest))
		j := rng.Intn(len(forest) - 1)
		if j >= i {
			j++
		}
		l, r := forest[i], forest[j]
		joined := &plan.Node{Set: l.Set.Union(r.Set), Left: l, Right: r}
		// Remove j and i (order-safe), append joined.
		if i < j {
			i, j = j, i
		}
		forest[i] = forest[len(forest)-1]
		forest = forest[:len(forest)-1]
		if j < len(forest) {
			forest[j] = forest[len(forest)-1]
			forest = forest[:len(forest)-1]
		} else {
			forest = forest[:len(forest)-1]
		}
		forest = append(forest, joined)
	}
	root := forest[0]
	root.RecomputeCards(g, cards)
	root.RecomputeCost(m)
	return root
}

// neighbor applies one random transformation to a copy of p and returns it,
// re-annotated. The move set is the standard one: commute a join, rotate an
// association left or right, or exchange subtrees between the two sides of a
// bushy join.
func neighbor(p *plan.Node, cards []float64, g *joingraph.Graph, m cost.Model, rng *rand.Rand) *plan.Node {
	cp := p.Clone()
	var inners []*plan.Node
	cp.Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			inners = append(inners, n)
		}
	})
	if len(inners) == 0 {
		return cp
	}
	// Try a few times to find an applicable move at a random node.
	for attempt := 0; attempt < 8; attempt++ {
		n := inners[rng.Intn(len(inners))]
		switch rng.Intn(4) {
		case 0: // commutativity: A ⨝ B → B ⨝ A
			n.Left, n.Right = n.Right, n.Left
		case 1: // left association: A ⨝ (B ⨝ C) → (A ⨝ B) ⨝ C
			if n.Right.IsLeaf() {
				continue
			}
			a, b, c := n.Left, n.Right.Left, n.Right.Right
			n.Left = &plan.Node{Set: a.Set.Union(b.Set), Left: a, Right: b}
			n.Right = c
		case 2: // right association: (A ⨝ B) ⨝ C → A ⨝ (B ⨝ C)
			if n.Left.IsLeaf() {
				continue
			}
			a, b, c := n.Left.Left, n.Left.Right, n.Right
			n.Left = a
			n.Right = &plan.Node{Set: b.Set.Union(c.Set), Left: b, Right: c}
		case 3: // exchange: (A ⨝ B) ⨝ (C ⨝ D) → (A ⨝ C) ⨝ (B ⨝ D)
			if n.Left.IsLeaf() || n.Right.IsLeaf() {
				continue
			}
			a, b := n.Left.Left, n.Left.Right
			c, d := n.Right.Left, n.Right.Right
			n.Left = &plan.Node{Set: a.Set.Union(c.Set), Left: a, Right: c}
			n.Right = &plan.Node{Set: b.Set.Union(d.Set), Left: b, Right: d}
		}
		// Fix Set fields up the spine, then re-annotate.
		fixSets(cp)
		cp.RecomputeCards(g, cards)
		cp.RecomputeCost(m)
		return cp
	}
	cp.RecomputeCards(g, cards)
	cp.RecomputeCost(m)
	return cp
}

func fixSets(n *plan.Node) bitset.Set {
	if n.IsLeaf() {
		return n.Set
	}
	n.Set = fixSets(n.Left).Union(fixSets(n.Right))
	return n.Set
}

// HillClimbFrom hill-climbs from the given starting plan: it proposes random
// neighbors and accepts any cost reduction, stopping after patience
// consecutive non-improving proposals or maxMovesPerClimb(n) total. The
// paper's §7 hybrid ("combines dynamic programming with randomized search")
// uses this to polish a dynamic-programming seed plan. Returns the improved
// plan (a copy; start is untouched) and the number of plans costed.
func HillClimbFrom(start *plan.Node, cards []float64, g *joingraph.Graph, m cost.Model,
	opts StochasticOptions) (*plan.Node, uint64) {
	n := len(cards)
	rng := rand.New(rand.NewSource(opts.seed()))
	cur := start.Clone()
	cur.RecomputeCards(g, cards)
	cur.RecomputeCost(m)
	var considered uint64
	patience := 4 * n
	stale := 0
	for moves := 0; moves < maxMovesPerClimb(n) && stale < patience; moves++ {
		next := neighbor(cur, cards, g, m, rng)
		considered++
		if next.Cost < cur.Cost {
			cur = next
			stale = 0
		} else {
			stale++
		}
	}
	return cur, considered
}

// IterativeImprovement runs restart hill-climbing: from a random plan, accept
// any cost-reducing neighbor until no improvement is seen for a while, then
// restart; the best local minimum wins. Considered counts plans costed.
func IterativeImprovement(cards []float64, g *joingraph.Graph, m cost.Model, opts StochasticOptions) (*Result, error) {
	if err := validate(cards, g); err != nil {
		return nil, err
	}
	n := len(cards)
	rng := rand.New(rand.NewSource(opts.seed()))
	var best *plan.Node
	bestCost := math.Inf(1)
	var considered uint64
	patience := 4 * n // consecutive non-improving proposals before giving up
	for r := 0; r < opts.restarts(); r++ {
		cur := RandomPlan(cards, g, m, rng)
		considered++
		stale := 0
		for moves := 0; moves < maxMovesPerClimb(n) && stale < patience; moves++ {
			next := neighbor(cur, cards, g, m, rng)
			considered++
			if next.Cost < cur.Cost {
				cur = next
				stale = 0
			} else {
				stale++
			}
		}
		if cur.Cost < bestCost {
			bestCost = cur.Cost
			best = cur
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baseline: iterative improvement found no plan")
	}
	return &Result{Plan: best, Cost: bestCost, Considered: considered}, nil
}

// SimulatedAnnealing runs a standard geometric-cooling annealer over the same
// move set, starting at twice the cost of its first random plan (1 if that
// cost is ≤ 0). Considered counts plans costed.
func SimulatedAnnealing(cards []float64, g *joingraph.Graph, m cost.Model, opts StochasticOptions) (*Result, error) {
	if err := validate(cards, g); err != nil {
		return nil, err
	}
	n := len(cards)
	rng := rand.New(rand.NewSource(opts.seed()))
	cur := RandomPlan(cards, g, m, rng)
	best := cur
	var considered uint64 = 1
	t0 := 2 * cur.Cost
	if t0 <= 0 {
		t0 = 1
	}
	minT := t0 * minTemperatureRatio
	steps := stepsPerTemperature(n)
	for temp := t0; temp > minT; temp *= coolingRate {
		for i := 0; i < steps; i++ {
			next := neighbor(cur, cards, g, m, rng)
			considered++
			delta := next.Cost - cur.Cost
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = next
				if cur.Cost < best.Cost {
					best = cur
				}
			}
		}
	}
	return &Result{Plan: best, Cost: best.Cost, Considered: considered}, nil
}
