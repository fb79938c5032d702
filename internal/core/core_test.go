package core

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// table1Query is the paper's worked example: A, B, C, D with cardinalities
// 10, 20, 30, 40 and no predicates, under the naive cost model.
func table1Query() Query {
	return Query{Cards: []float64{10, 20, 30, 40}}
}

// TestTable1 reproduces every row of the paper's Table 1.
func TestTable1(t *testing.T) {
	res, err := Optimize(table1Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table
	rows := []struct {
		set  bitset.Set
		card float64
		cost float64
	}{
		{bitset.Of(0), 10, 0},
		{bitset.Of(1), 20, 0},
		{bitset.Of(2), 30, 0},
		{bitset.Of(3), 40, 0},
		{bitset.Of(0, 1), 200, 200},
		{bitset.Of(0, 2), 300, 300},
		{bitset.Of(0, 3), 400, 400},
		{bitset.Of(1, 2), 600, 600},
		{bitset.Of(1, 3), 800, 800},
		{bitset.Of(2, 3), 1200, 1200},
		{bitset.Of(0, 1, 2), 6000, 6200},
		{bitset.Of(0, 1, 3), 8000, 8200},
		{bitset.Of(0, 2, 3), 12000, 12300},
		{bitset.Of(1, 2, 3), 24000, 24600},
		{bitset.Of(0, 1, 2, 3), 240000, 241000},
	}
	for _, row := range rows {
		if got := tab.Card(row.set); got != row.card {
			t.Errorf("card(%v) = %v, want %v", row.set, got, row.card)
		}
		if got := tab.Cost(row.set); got != row.cost {
			t.Errorf("cost(%v) = %v, want %v", row.set, got, row.cost)
		}
	}
	// Table 1's best LHS for the full set is {A,D}; the mirror split {B,C}
	// describes the same (commuted) plan and is an equally valid answer.
	full := bitset.Of(0, 1, 2, 3)
	if lhs := tab.BestLHS(full); lhs != bitset.Of(0, 3) && lhs != bitset.Of(1, 2) {
		t.Errorf("bestLHS(full) = %v, want {A,D} or {B,C}", lhs)
	}
	if res.Cost != 241000 || res.Cardinality != 240000 {
		t.Errorf("result cost=%v card=%v", res.Cost, res.Cardinality)
	}
	// The extracted plan must be (A ⨯ D) ⨯ (B ⨯ C) up to commutation.
	want := &plan.Node{
		Set:  full,
		Left: &plan.Node{Set: bitset.Of(0, 3), Left: plan.Leaf(0, 10), Right: plan.Leaf(3, 40)},
		Right: &plan.Node{
			Set: bitset.Of(1, 2), Left: plan.Leaf(1, 20), Right: plan.Leaf(2, 30)},
	}
	if !res.Plan.Equal(want) {
		t.Errorf("plan = %s, want (A⨯D)⨯(B⨯C)", res.Plan.Expression([]string{"A", "B", "C", "D"}))
	}
	if err := res.Plan.Validate(); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
}

func TestSingleRelation(t *testing.T) {
	res, err := Optimize(Query{Cards: []float64{42}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsLeaf() || res.Plan.Rel != 0 {
		t.Errorf("plan = %v", res.Plan)
	}
	if res.Cost != 0 || res.Cardinality != 42 {
		t.Errorf("cost=%v card=%v", res.Cost, res.Cardinality)
	}
}

func TestQueryValidation(t *testing.T) {
	cases := []Query{
		{},
		{Cards: []float64{1, -2}},
		{Cards: []float64{1, math.NaN()}},
		{Cards: []float64{1, math.Inf(1)}},
		{Cards: make([]float64, bitset.MaxRelations+1)},
		{Cards: []float64{1, 2}, Graph: joingraph.New(3)},
	}
	for i, q := range cases {
		if i == 4 {
			for j := range q.Cards {
				q.Cards[j] = 1
			}
		}
		if _, err := Optimize(q, Options{}); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

// randomQuery builds a random join query with n relations.
func randomQuery(rng *rand.Rand, n int, edgeProb float64) Query {
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = math.Floor(1 + rng.Float64()*500)
	}
	g := joingraph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < edgeProb {
				g.MustAddEdge(i, j, 0.001+0.999*rng.Float64())
			}
		}
	}
	return Query{Cards: cards, Graph: g}
}

// bruteForce computes the optimal bushy plan cost by plain recursion with
// memoization over relation sets — an implementation that shares nothing with
// the Table code paths.
func bruteForce(q Query, m cost.Model, leftDeep bool) float64 {
	memo := map[bitset.Set]float64{}
	var cardOf func(s bitset.Set) float64
	cardOf = func(s bitset.Set) float64 {
		card := 1.0
		s.ForEach(func(i int) { card *= q.Cards[i] })
		if q.Graph != nil {
			for _, e := range q.Graph.Edges() {
				if s.Has(e.A) && s.Has(e.B) {
					card *= e.Selectivity
				}
			}
		}
		return card
	}
	var solve func(s bitset.Set) float64
	solve = func(s bitset.Set) float64 {
		if s.IsSingleton() {
			return 0
		}
		if v, ok := memo[s]; ok {
			return v
		}
		best := math.Inf(1)
		out := cardOf(s)
		for lhs := s.MinSet(); lhs != s; lhs = s.NextSubset(lhs) {
			rhs := s ^ lhs
			if leftDeep && !rhs.IsSingleton() {
				continue
			}
			total := solve(lhs) + solve(rhs) + cost.Total(m, out, cardOf(lhs), cardOf(rhs))
			if total < best {
				best = total
			}
		}
		memo[s] = best
		return best
	}
	return solve(bitset.Full(len(q.Cards)))
}

// TestOptimalityAgainstBruteForce cross-checks blitzsplit's optimum against
// an independent exhaustive recursion for random queries and all models.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	models := []cost.Model{
		cost.Naive{},
		cost.SortMerge{},
		cost.NewDiskNestedLoops(),
		cost.NewHashJoin(),
		cost.NewMin(cost.SortMerge{}, cost.NewDiskNestedLoops()),
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		q := randomQuery(rng, n, 0.5)
		for _, m := range models {
			res, err := Optimize(q, Options{Model: m})
			if err != nil {
				t.Fatalf("trial %d model %s: %v", trial, m.Name(), err)
			}
			want := bruteForce(q, m, false)
			if relDiff(res.Cost, want) > 1e-9 {
				t.Errorf("trial %d model %s: cost %v, brute force %v", trial, m.Name(), res.Cost, want)
			}
			// The plan's recomputed cost must agree with the reported cost.
			got := res.Plan.Clone()
			got.RecomputeCards(q.Graph, q.Cards)
			if c := got.RecomputeCost(m); relDiff(c, res.Cost) > 1e-9 {
				t.Errorf("trial %d model %s: plan recost %v ≠ %v", trial, m.Name(), c, res.Cost)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Errorf("trial %d model %s: invalid plan: %v", trial, m.Name(), err)
			}
		}
	}
}

// TestLeftDeepOptimality cross-checks the left-deep mode the same way, and
// asserts left-deep never beats bushy.
func TestLeftDeepOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(6)
		q := randomQuery(rng, n, 0.6)
		m := cost.NewDiskNestedLoops()
		ld, err := Optimize(q, Options{Model: m, LeftDeep: true})
		if err != nil {
			t.Fatal(err)
		}
		if !ld.Plan.IsLeftDeep() {
			t.Errorf("trial %d: plan is not left-deep:\n%s", trial, ld.Plan)
		}
		if want := bruteForce(q, m, true); relDiff(ld.Cost, want) > 1e-9 {
			t.Errorf("trial %d: left-deep cost %v, brute force %v", trial, ld.Cost, want)
		}
		bushy, err := Optimize(q, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if bushy.Cost > ld.Cost*(1+1e-12) {
			t.Errorf("trial %d: bushy cost %v exceeds left-deep %v", trial, bushy.Cost, ld.Cost)
		}
	}
}

// TestCardinalityColumnMatchesReference: the table's card and fan columns
// must agree with the joingraph reference computations for every subset.
func TestCardinalityColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(7)
		q := randomQuery(rng, n, 0.5)
		res, err := Optimize(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		full := bitset.Full(n)
		for s := bitset.Set(1); s <= full; s++ {
			if !s.SubsetOf(full) || s.IsEmpty() {
				continue
			}
			want := q.Graph.JoinCardinality(s, q.Cards)
			if relDiff(res.Table.Card(s), want) > 1e-9 {
				t.Fatalf("trial %d: card(%v) = %v, want %v", trial, s, res.Table.Card(s), want)
			}
			if s.Count() >= 2 {
				if relDiff(res.Table.Fan(s), q.Graph.FanProduct(s)) > 1e-9 {
					t.Fatalf("trial %d: fan(%v) = %v, want %v", trial, s, res.Table.Fan(s), q.Graph.FanProduct(s))
				}
			}
		}
	}
}

// TestEnumerationAblationsAgree: the descending enumerator and the
// disabled-nested-ifs path must find the same optimum as the default path.
func TestEnumerationAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng, 2+rng.Intn(6), 0.5)
		m := cost.SortMerge{}
		base, err := Optimize(q, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Model: m, DescendingSubsets: true},
			{Model: m, DisableNestedIfs: true},
			{Model: m, DescendingSubsets: true, DisableNestedIfs: true},
		} {
			alt, err := Optimize(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(alt.Cost, base.Cost) > 1e-9 {
				t.Errorf("trial %d opts %+v: cost %v ≠ %v", trial, opts, alt.Cost, base.Cost)
			}
		}
	}
}

// TestExactLoopCounts verifies the §3.3 aggregate iteration counts exactly:
// bushy LoopIters = 3^n − 2^{n+1} + 1, KpEvals = SubsetsVisited = 2^n − n − 1,
// and left-deep LoopIters = n·2^{n−1} − n.
func TestExactLoopCounts(t *testing.T) {
	for n := 2; n <= 12; n++ {
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = float64(10 * (i + 1))
		}
		res, err := Optimize(Query{Cards: cards}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		wantLoop := uint64(pow3(n)) - uint64(1)<<uint(n+1) + 1
		if c.LoopIters != wantLoop {
			t.Errorf("n=%d: LoopIters = %d, want %d", n, c.LoopIters, wantLoop)
		}
		wantSubsets := uint64(1)<<uint(n) - uint64(n) - 1
		if c.SubsetsVisited != wantSubsets {
			t.Errorf("n=%d: SubsetsVisited = %d, want %d", n, c.SubsetsVisited, wantSubsets)
		}
		if c.KpEvals != wantSubsets {
			t.Errorf("n=%d: KpEvals = %d, want %d", n, c.KpEvals, wantSubsets)
		}
		if c.Passes != 1 {
			t.Errorf("n=%d: Passes = %d", n, c.Passes)
		}
		// Naive model: κ″ ≡ 0 is never evaluated.
		if c.KppEvals != 0 {
			t.Errorf("n=%d: naive KppEvals = %d, want 0", n, c.KppEvals)
		}
		// CondHits: at least one improvement per subset, at most one per
		// iteration.
		if c.CondHits < wantSubsets || c.CondHits > c.LoopIters {
			t.Errorf("n=%d: CondHits = %d outside [%d,%d]", n, c.CondHits, wantSubsets, c.LoopIters)
		}

		ld, err := Optimize(Query{Cards: cards}, Options{LeftDeep: true})
		if err != nil {
			t.Fatal(err)
		}
		wantLD := uint64(n)<<uint(n-1) - uint64(n)
		if ld.Counters.LoopIters != wantLD {
			t.Errorf("n=%d: left-deep LoopIters = %d, want %d", n, ld.Counters.LoopIters, wantLD)
		}
	}
}

func pow3(n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= 3
	}
	return p
}

// TestKppBounds verifies the §6.2 claim that with nested ifs the κ″ execution
// count falls between (ln2/2)·n·2^n and 3^n for a non-trivial model, and that
// disabling nested ifs pushes it to the full split count.
func TestKppBounds(t *testing.T) {
	n := 12
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	g := joingraph.Build(joingraph.ChainEdges(joingraph.AppendixChainOrder(n)), cards)
	q := Query{Cards: cards, Graph: g}
	m := cost.SortMerge{}

	res, err := Optimize(q, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	splits := uint64(pow3(n)) - uint64(1)<<uint(n+1) + 1
	if res.Counters.KppEvals > splits {
		t.Errorf("KppEvals = %d exceeds total splits %d", res.Counters.KppEvals, splits)
	}
	if res.Counters.KppEvals == 0 {
		t.Error("KppEvals = 0 for a non-naive model")
	}

	abl, err := Optimize(q, Options{Model: m, DisableNestedIfs: true})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Counters.KppEvals != splits {
		t.Errorf("ablated KppEvals = %d, want all %d splits", abl.Counters.KppEvals, splits)
	}
	if res.Counters.KppEvals >= abl.Counters.KppEvals {
		t.Errorf("nested ifs did not reduce κ″ evaluations: %d vs %d",
			res.Counters.KppEvals, abl.Counters.KppEvals)
	}
}

// TestThresholdFindsSameCost: §6.4 — thresholded optimization may take more
// passes but must end at the same optimum.
func TestThresholdFindsSameCost(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng, 3+rng.Intn(6), 0.5)
		m := cost.NewDiskNestedLoops()
		base, err := Optimize(q, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		// A threshold well below the true optimum forces re-optimization.
		th, err := Optimize(q, Options{Model: m, CostThreshold: base.Cost / 1e7})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(th.Cost, base.Cost) > 1e-9 {
			t.Errorf("trial %d: thresholded cost %v ≠ %v", trial, th.Cost, base.Cost)
		}
		if th.Counters.Passes < 2 {
			t.Errorf("trial %d: expected multiple passes, got %d", trial, th.Counters.Passes)
		}
	}
}

// TestThresholdSinglePassWhenGenerous: a threshold above the optimum needs
// one pass and prunes work.
func TestThresholdSinglePassWhenGenerous(t *testing.T) {
	n := 14
	cards := joingraph.CardinalityLadder(n, 1000, 0.5)
	g := joingraph.Build(joingraph.ChainEdges(joingraph.AppendixChainOrder(n)), cards)
	q := Query{Cards: cards, Graph: g}
	base, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	th, err := Optimize(q, Options{CostThreshold: base.Cost * 2})
	if err != nil {
		t.Fatal(err)
	}
	if th.Counters.Passes != 1 {
		t.Errorf("Passes = %d, want 1", th.Counters.Passes)
	}
	if relDiff(th.Cost, base.Cost) > 1e-9 {
		t.Errorf("cost %v ≠ %v", th.Cost, base.Cost)
	}
	if th.Counters.ThresholdSkips == 0 {
		t.Error("generous threshold pruned nothing on a chain query")
	}
	if th.Counters.LoopIters >= base.Counters.LoopIters {
		t.Errorf("threshold did not reduce loop iterations: %d vs %d",
			th.Counters.LoopIters, base.Counters.LoopIters)
	}
}

// TestOverflowNoPlan: costs beyond the overflow limit on every plan yield
// ErrNoPlan, mirroring §6.3's summary rejection.
func TestOverflowNoPlan(t *testing.T) {
	q := Query{Cards: []float64{1e30, 1e30, 1e30}}
	_, err := Optimize(q, Options{}) // product 1e90 ≫ MaxFloat32
	if err != ErrNoPlan {
		t.Fatalf("err = %v, want ErrNoPlan", err)
	}
	// Raising the overflow limit makes the same query optimizable.
	res, err := Optimize(q, Options{OverflowLimit: math.MaxFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(res.Cost, 1e90) > 1e-9 {
		t.Errorf("cost = %v, want ≈1e90", res.Cost)
	}
}

// TestOverflowMidTable: only some intermediate results overflow; the
// optimizer must route around them if possible, or fail cleanly.
func TestOverflowMidTable(t *testing.T) {
	// Two huge relations whose pairwise product overflows float32, joined
	// via selective predicates so the full join is cheap.
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 1e-30)
	g.MustAddEdge(1, 2, 1e-30)
	q := Query{Cards: []float64{1e25, 1e25, 1e25}, Graph: g}
	res, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Cost, 1) {
		t.Fatal("no plan found")
	}
	if res.Counters.ThresholdSkips == 0 {
		t.Error("expected overflowed subsets to be skipped")
	}
	// The chosen plan must avoid the overflowing Cartesian product {R0,R2}.
	res.Plan.Walk(func(n *plan.Node) {
		if n.Set == bitset.Of(0, 2) {
			t.Error("plan contains the overflowing product {R0,R2}")
		}
	})
}

// TestCartesianProductsChosenWhenOptimal: the §7 claim — a Cartesian product
// of two tiny relations can be the right first step and blitzsplit takes it.
func TestCartesianProductsChosenWhenOptimal(t *testing.T) {
	// Classic example: two small relations with no connecting predicate and
	// a huge hub connected to both. Under κ0 the product of the small pair
	// (card 100) beats joining either against the hub first (card 10⁴).
	g := joingraph.New(3)
	g.MustAddEdge(0, 2, 1e-3) // R0 ⋈ R2
	g.MustAddEdge(1, 2, 1e-3) // R1 ⋈ R2
	q := Query{Cards: []float64{10, 10, 1e6}, Graph: g}
	res, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal plan: (R0 ⨯ R1) ⨝ R2.
	foundProduct := false
	res.Plan.Walk(func(n *plan.Node) {
		if n.Set == bitset.Of(0, 1) {
			foundProduct = true
		}
	})
	if !foundProduct {
		t.Errorf("optimal Cartesian product not chosen:\n%s", res.Plan)
	}
}

// TestConnectedQueryAvoidsPointlessProducts: with strong predicates
// everywhere, the optimal plan applies predicates (sanity: each join node of
// the chain plan has a spanning predicate).
func TestConnectedQueryAvoidsPointlessProducts(t *testing.T) {
	n := 8
	cards := joingraph.CardinalityLadder(n, 1000, 0.5)
	g := joingraph.Build(joingraph.ChainEdges(joingraph.AppendixChainOrder(n)), cards)
	res, err := Optimize(Query{Cards: cards, Graph: g}, Options{Model: cost.NewDiskNestedLoops()})
	if err != nil {
		t.Fatal(err)
	}
	res.Plan.Walk(func(nd *plan.Node) {
		if nd.IsLeaf() {
			return
		}
		if g.SpanProduct(nd.Left.Set, nd.Right.Set) == 1 && !g.Connected(nd.Set) {
			// A genuine Cartesian product in a fully connected chain query
			// with uniform selectivities should not appear.
			t.Errorf("unexpected Cartesian product at %v", nd.Set)
		}
	})
}

// TestTableAccessors covers Fan's no-graph default and N.
func TestTableAccessors(t *testing.T) {
	res, err := Optimize(table1Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.N() != 4 {
		t.Errorf("N = %d", res.Table.N())
	}
	if res.Table.Fan(bitset.Of(0, 1)) != 1 {
		t.Errorf("Fan without graph = %v, want 1", res.Table.Fan(bitset.Of(0, 1)))
	}
}

// TestCountersAdd exercises the accumulator.
func TestCountersAdd(t *testing.T) {
	a := Counters{SubsetsVisited: 1, LoopIters: 2, KppEvals: 3, KpEvals: 4, CondHits: 5, ThresholdSkips: 6, Passes: 1}
	b := a
	a.Add(b)
	if a.LoopIters != 4 || a.SubsetsVisited != 2 || a.KppEvals != 6 ||
		a.KpEvals != 8 || a.CondHits != 10 || a.ThresholdSkips != 12 || a.Passes != 2 {
		t.Errorf("Add = %+v", a)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}
