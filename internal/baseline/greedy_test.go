package baseline

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
)

func greedyChain(n int) ([]float64, *joingraph.Graph) {
	cards := joingraph.CardinalityLadder(n, 300, 0.5)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return cards, joingraph.Build(joingraph.ChainEdges(order), cards)
}

// TestGreedyLeftDeepShape: the plan is a left-deep vine covering every
// relation, structurally valid, with finite nonnegative cost.
func TestGreedyLeftDeepShape(t *testing.T) {
	cards, g := greedyChain(12)
	res, err := GreedyLeftDeep(cards, g, cost.SortMerge{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsLeftDeep() {
		t.Fatal("plan is not left-deep")
	}
	if res.Plan.Set != bitset.Full(12) {
		t.Fatalf("plan covers %v, want all relations", res.Plan.Set)
	}
	if math.IsNaN(res.Cost) || res.Cost < 0 || math.IsInf(res.Cost, 0) {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Considered == 0 {
		t.Fatal("Considered = 0")
	}
}

// TestGreedyAnnotationsConsistent: recorded cardinalities and costs must
// match a from-scratch recomputation under §5.1 induced-subgraph semantics —
// the property the facade's Verify leans on for the ladder's floor.
func TestGreedyAnnotationsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(9)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = 1 + math.Floor(rng.Float64()*1e3)
		}
		var g *joingraph.Graph
		if rng.Intn(4) > 0 { // every fourth trial is a pure product
			g = joingraph.New(n)
			for i := 1; i < n; i++ {
				if rng.Intn(3) > 0 {
					g.MustAddEdge(rng.Intn(i), i, 0.1)
				}
			}
		}
		m := cost.SortMerge{}
		res, err := GreedyLeftDeep(cards, g, m)
		if err != nil {
			t.Fatal(err)
		}
		ref := res.Plan.Clone()
		wantCard := ref.RecomputeCards(g, cards)
		wantCost := ref.RecomputeCost(m)
		if rel := math.Abs(res.Plan.Card-wantCard) / math.Max(1, wantCard); rel > 1e-9 {
			t.Fatalf("trial %d: root card %v, recomputed %v", trial, res.Plan.Card, wantCard)
		}
		if rel := math.Abs(res.Cost-wantCost) / math.Max(1, wantCost); rel > 1e-9 {
			t.Fatalf("trial %d: cost %v, recomputed %v", trial, res.Cost, wantCost)
		}
	}
}

// TestGreedyNeverBeatsExhaustive: greedy is an upper bound on the optimum —
// the invariant Seed's threshold rests on.
func TestGreedyNeverBeatsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(5)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = 1 + math.Floor(rng.Float64()*500)
		}
		m := cost.SortMerge{}
		greedy, err := GreedyLeftDeep(cards, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := BruteForce(cards, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Cost < brute.Cost*(1-1e-12) {
			t.Fatalf("trial %d: greedy %v beats the exhaustive optimum %v", trial, greedy.Cost, brute.Cost)
		}
	}
}

// TestGreedyDegenerate: single relations and empty inputs.
func TestGreedyDegenerate(t *testing.T) {
	res, err := GreedyLeftDeep([]float64{42}, nil, cost.Naive{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsLeaf() || res.Cost != 0 {
		t.Fatalf("n=1 plan = %v cost = %v", res.Plan, res.Cost)
	}
	if _, err := GreedyLeftDeep(nil, nil, cost.Naive{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestGreedyEveryCandidateOverflows: when every next join's cardinality is
// +Inf, no candidate compares below the start value; greedy must still build
// a left-deep plan over every relation (the ladder's floor and seed) instead
// of indexing relation −1.
func TestGreedyEveryCandidateOverflows(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = 1e300
		}
		res, err := GreedyLeftDeep(cards, nil, cost.Naive{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Set != bitset.Full(n) || !res.Plan.IsLeftDeep() {
			t.Fatalf("n=%d: plan %v covers %v, want a left-deep plan over all", n, res.Plan, res.Plan.Set)
		}
		if !math.IsInf(res.Cost, 1) {
			t.Fatalf("n=%d: cost = %v, want +Inf", n, res.Cost)
		}
		if _, threshold, err := Seed(cards, nil, cost.Naive{}, false); err != nil || !math.IsInf(threshold, 1) {
			t.Fatalf("n=%d: Seed threshold %v, err %v", n, threshold, err)
		}
	}
}
