package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// queryFromSeed derives a small random join query deterministically from a
// quick.Check seed.
func queryFromSeed(seed int64) Query {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(6)
	return randomQuery(rng, n, 0.5)
}

// TestPropertyCostMonotoneInSelectivity: weakening any predicate (increasing
// its selectivity toward 1) can only keep the optimal cost equal or raise it
// under κ0 — more surviving tuples can never make the cheapest plan cheaper.
func TestPropertyCostMonotoneInSelectivity(t *testing.T) {
	f := func(seed int64, edgePick uint8) bool {
		q := queryFromSeed(seed)
		edges := q.Graph.Edges()
		if len(edges) == 0 {
			return true
		}
		e := edges[int(edgePick)%len(edges)]
		weaker := joingraph.New(q.Graph.N())
		for _, o := range edges {
			sel := o.Selectivity
			if o == e {
				sel = math.Min(1, sel*10)
			}
			weaker.MustAddEdge(o.A, o.B, sel)
		}
		a, err := Optimize(q, Options{})
		if err != nil {
			return true
		}
		b, err := Optimize(Query{Cards: q.Cards, Graph: weaker}, Options{})
		if err != nil {
			return true
		}
		return b.Cost >= a.Cost*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRelabelInvariance: permuting the relation indexes (a pure
// renaming) must leave the optimal cost unchanged — the optimizer cannot
// depend on the arbitrary total order the fan recurrence uses (§5.3 stresses
// the order "has nothing to do with cardinality or any other property").
func TestPropertyRelabelInvariance(t *testing.T) {
	f := func(seed int64) bool {
		q := queryFromSeed(seed)
		n := q.NumRelations()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := rng.Perm(n)
		cards2 := make([]float64, n)
		for i, c := range q.Cards {
			cards2[perm[i]] = c
		}
		g2 := joingraph.New(n)
		for _, e := range q.Graph.Edges() {
			g2.MustAddEdge(perm[e.A], perm[e.B], e.Selectivity)
		}
		m := cost.NewDiskNestedLoops()
		a, err := Optimize(q, Options{Model: m})
		if err != nil {
			return true
		}
		b, err := Optimize(Query{Cards: cards2, Graph: g2}, Options{Model: m})
		if err != nil {
			return false
		}
		return relDiff(a.Cost, b.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPlanPartition: in any optimal plan, every inner node's
// children partition its set, every leaf appears exactly once, and the root
// covers all relations.
func TestPropertyPlanPartition(t *testing.T) {
	f := func(seed int64) bool {
		q := queryFromSeed(seed)
		res, err := Optimize(q, Options{Model: cost.NewDiskNestedLoops()})
		if err != nil {
			return true
		}
		if res.Plan.Validate() != nil {
			return false
		}
		seen := map[int]int{}
		leafCount := 0
		res.Plan.Walk(func(n *plan.Node) {
			if n.IsLeaf() {
				seen[n.Rel]++
				leafCount++
			}
		})
		if leafCount != q.NumRelations() {
			return false
		}
		for i := 0; i < q.NumRelations(); i++ {
			if seen[i] != 1 {
				return false
			}
		}
		return res.Plan.Set == bitset.Full(q.NumRelations())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyThresholdInvariance: for any random query and any positive
// threshold, thresholded optimization returns the same optimal cost.
func TestPropertyThresholdInvariance(t *testing.T) {
	f := func(seed int64, thRaw uint16) bool {
		q := queryFromSeed(seed)
		base, err := Optimize(q, Options{})
		if err != nil {
			return true
		}
		threshold := float64(thRaw%1000+1) * base.Cost / 500 // 0.002×…2× optimum
		th, err := Optimize(q, Options{CostThreshold: threshold})
		if err != nil {
			return true
		}
		return relDiff(th.Cost, base.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
