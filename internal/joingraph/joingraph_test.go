package joingraph

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blitzsplit/internal/bitset"
)

// paperGraph builds the Figure-3 example: nodes A,B,C,D = 0,1,2,3 with edges
// AB, AC, BC, AD.
func paperGraph(selAB, selAC, selBC, selAD float64) *Graph {
	g := New(4)
	g.MustAddEdge(0, 1, selAB)
	g.MustAddEdge(0, 2, selAC)
	g.MustAddEdge(1, 2, selBC)
	g.MustAddEdge(0, 3, selAD)
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 0.5); err == nil {
		t.Error("self-edge accepted")
	}
	if err := g.AddEdge(0, 3, 0.5); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 1, 0.5); err == nil {
		t.Error("negative endpoint accepted")
	}
	for _, sel := range []float64{0, -0.5, 1.5, math.NaN()} {
		if err := g.AddEdge(0, 1, sel); err == nil {
			t.Errorf("selectivity %v accepted", sel)
		}
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Errorf("selectivity 1 rejected: %v", err)
	}
	if err := g.AddEdge(1, 0, 0.5); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestEdgeNormalization(t *testing.T) {
	g := New(5)
	g.MustAddEdge(4, 2, 0.25)
	es := g.Edges()
	if len(es) != 1 || es[0].A != 2 || es[0].B != 4 {
		t.Fatalf("Edges = %+v, want normalized (2,4)", es)
	}
	if !g.HasEdge(2, 4) || !g.HasEdge(4, 2) {
		t.Error("HasEdge not symmetric")
	}
	if g.Selectivity(2, 4) != 0.25 || g.Selectivity(4, 2) != 0.25 {
		t.Error("Selectivity not symmetric")
	}
	if g.Selectivity(0, 1) != 1 {
		t.Error("missing edge selectivity should be 1")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := paperGraph(0.5, 0.5, 0.5, 0.5)
	if got := g.Neighbors(3).Count(); got != 1 {
		t.Errorf("deg(D) = %d, want 1", got)
	}
	if g.Neighbors(0) != bitset.Of(1, 2, 3) {
		t.Errorf("Neighbors(A) = %v", g.Neighbors(0))
	}
	if got := g.NeighborsOfSet(bitset.Of(1, 3)); got != bitset.Of(0, 2) {
		t.Errorf("NeighborsOfSet({B,D}) = %v", got)
	}
}

func TestSpanProduct(t *testing.T) {
	g := paperGraph(0.1, 0.2, 0.3, 0.4)
	// §5.2: predicates spanning U={A} and V={B,C} are AB and AC.
	got := g.SpanProduct(bitset.Of(0), bitset.Of(1, 2))
	if want := 0.1 * 0.2; math.Abs(got-want) > 1e-15 {
		t.Errorf("SpanProduct = %v, want %v", got, want)
	}
	// No spanning predicates between {B} and {D}.
	if got := g.SpanProduct(bitset.Of(1), bitset.Of(3)); got != 1 {
		t.Errorf("SpanProduct disjoint = %v, want 1", got)
	}
}

func TestFanProduct(t *testing.T) {
	g := paperGraph(0.1, 0.2, 0.3, 0.4)
	// §5.3: fan of {A,B,C} is {AB, AC} since min = A.
	got := g.FanProduct(bitset.Of(0, 1, 2))
	if want := 0.1 * 0.2; math.Abs(got-want) > 1e-15 {
		t.Errorf("FanProduct({A,B,C}) = %v, want %v", got, want)
	}
	// Fan of {B,C,D}: min = B, spanning edges from B to {C,D} = {BC}.
	if got := g.FanProduct(bitset.Of(1, 2, 3)); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("FanProduct({B,C,D}) = %v, want 0.3", got)
	}
	if got := g.FanProduct(bitset.Of(2)); got != 1 {
		t.Errorf("FanProduct singleton = %v, want 1", got)
	}
}

// TestFanRecurrence verifies equation (10): Π_fan(S) = Π_fan(U∪W)·Π_fan(U∪Z)
// for every split of S−U into W and Z, on random graphs.
func TestFanRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		g := randomGraph(rng, n)
		full := bitset.Full(n)
		for s := bitset.Set(3); s <= full; s++ {
			if !s.SubsetOf(full) || s.Count() < 3 {
				continue
			}
			u := s.MinSet()
			v := s.Diff(u)
			fanS := g.FanProduct(s)
			for w := v.MinSet(); w != v; w = v.NextSubset(w) {
				z := v.Diff(w)
				got := g.FanProduct(u.Union(w)) * g.FanProduct(u.Union(z))
				if relDiff(got, fanS) > 1e-9 {
					t.Fatalf("n=%d S=%v W=%v: recurrence %v ≠ direct %v", n, s, w, got, fanS)
				}
			}
		}
	}
}

// TestCardinalityRecurrence verifies equation (11):
// card(S) = card(U)·card(V)·Π_fan(S) with U = {min S}.
func TestCardinalityRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		g := randomGraph(rng, n)
		cards := randomCards(rng, n)
		full := bitset.Full(n)
		for s := bitset.Set(3); s <= full; s++ {
			if !s.SubsetOf(full) || s.Count() < 2 {
				continue
			}
			u := s.MinSet()
			v := s.Diff(u)
			want := g.JoinCardinality(s, cards)
			got := g.JoinCardinality(u, cards) * g.JoinCardinality(v, cards) * g.FanProduct(s)
			if relDiff(got, want) > 1e-9 {
				t.Fatalf("n=%d S=%v: recurrence %v ≠ direct %v", n, s, got, want)
			}
		}
	}
}

// TestSpanRecurrence7 verifies equation (7) for arbitrary splits:
// card(S) = card(U)·card(V)·Π_span(U,V).
func TestSpanRecurrence7(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		g := randomGraph(rng, n)
		cards := randomCards(rng, n)
		full := bitset.Full(n)
		for s := bitset.Set(3); s <= full; s++ {
			if !s.SubsetOf(full) || s.Count() < 2 {
				continue
			}
			for u := s.MinSet(); u != s; u = s.NextSubset(u) {
				v := s.Diff(u)
				want := g.JoinCardinality(s, cards)
				got := g.JoinCardinality(u, cards) * g.JoinCardinality(v, cards) * g.SpanProduct(u, v)
				if relDiff(got, want) > 1e-9 {
					t.Fatalf("n=%d S=%v U=%v: %v ≠ %v", n, s, u, got, want)
				}
			}
		}
	}
}

func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				g.MustAddEdge(i, j, 0.01+0.99*rng.Float64())
			}
		}
	}
	return g
}

func randomCards(rng *rand.Rand, n int) []float64 {
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = math.Floor(1 + rng.Float64()*1000)
	}
	return cards
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

func TestConnected(t *testing.T) {
	g := paperGraph(0.5, 0.5, 0.5, 0.5)
	cases := []struct {
		s    bitset.Set
		want bool
	}{
		{bitset.Empty, true},
		{bitset.Of(2), true},
		{bitset.Of(0, 1, 2, 3), true},
		{bitset.Of(1, 2), true},  // B-C edge
		{bitset.Of(1, 3), false}, // B and D only connect through A
		{bitset.Of(2, 3), false},
		{bitset.Of(1, 2, 3), false},
	}
	for _, c := range cases {
		if got := g.Connected(c.s); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestJoinCardinalityPaperExample(t *testing.T) {
	// Cartesian product (no edges): Table 1's cardinalities.
	g := New(4)
	cards := []float64{10, 20, 30, 40}
	if got := g.JoinCardinality(bitset.Of(0, 1, 2, 3), cards); got != 240000 {
		t.Errorf("product cardinality = %v, want 240000", got)
	}
	if got := g.JoinCardinality(bitset.Of(0, 3), cards); got != 400 {
		t.Errorf("{A,D} cardinality = %v, want 400", got)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := paperGraph(0.1, 0.2, 0.3, 0.4)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || len(back.Edges()) != 4 {
		t.Fatalf("round trip: n=%d edges=%d", back.N(), len(back.Edges()))
	}
	if back.Selectivity(0, 3) != 0.4 {
		t.Errorf("round trip selectivity = %v", back.Selectivity(0, 3))
	}
	if err := json.Unmarshal([]byte(`{"n":2,"edges":[{"A":0,"B":0,"Selectivity":0.5}]}`), &back); err == nil {
		t.Error("self-edge JSON accepted")
	}
}

func TestValidate(t *testing.T) {
	g := paperGraph(0.1, 0.2, 0.3, 0.4)
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

// --- topology tests ---

func TestAppendixChainOrder15(t *testing.T) {
	want := []int{0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7}
	got := AppendixChainOrder(15)
	if len(got) != len(want) {
		t.Fatalf("order = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAppendixChainOrderCoversAll(t *testing.T) {
	for n := 1; n <= 20; n++ {
		order := AppendixChainOrder(n)
		if len(order) != n {
			t.Fatalf("n=%d: len = %d", n, len(order))
		}
		seen := map[int]bool{}
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: bad order %v", n, order)
			}
			seen[v] = true
		}
	}
}

func TestAppendixCyclePlus3(t *testing.T) {
	edges := AppendixCyclePlus3Edges(15)
	if len(edges) != 18 { // 14 chain + closing + 3 cross
		t.Fatalf("cycle+3 has %d edges, want 18", len(edges))
	}
	has := func(a, b int) bool {
		for _, e := range edges {
			if (e[0] == a && e[1] == b) || (e[0] == b && e[1] == a) {
				return true
			}
		}
		return false
	}
	for _, p := range []Pair{{0, 7}, {8, 14}, {1, 6}, {9, 13}} {
		if !has(p[0], p[1]) {
			t.Errorf("missing augmentation edge %v", p)
		}
	}
	// Generalized rule: works for any n ≥ 9, panics below.
	if got := AppendixCyclePlus3Edges(9); len(got) != 12 {
		t.Errorf("cycle+3 at n=9 has %d edges, want 12", len(got))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cycle+3 for n < 9 did not panic")
			}
		}()
		AppendixCyclePlus3Edges(8)
	}()
}

func TestTopologyEdgeCounts(t *testing.T) {
	n := 15
	counts := map[Topology]int{
		TopoChain:      n - 1,
		TopoCyclePlus3: n + 3,
		TopoStar:       n - 1,
		TopoClique:     n * (n - 1) / 2,
	}
	for topo, want := range counts {
		if got := len(topo.Edges(n)); got != want {
			t.Errorf("%v: %d edges, want %d", topo, got, want)
		}
	}
}

// uniformGraph builds an n-relation graph over pairs, every edge with
// selectivity 0.5.
func uniformGraph(n int, pairs []Pair) *Graph {
	g := New(n)
	for _, p := range pairs {
		g.MustAddEdge(p[0], p[1], 0.5)
	}
	return g
}

func TestTopologiesAreConnected(t *testing.T) {
	n := 15
	for _, topo := range AllTopologies {
		g := uniformGraph(n, topo.Edges(n))
		if !g.Connected(bitset.Full(n)) {
			t.Errorf("%v graph is not connected", topo)
		}
	}
}

func TestTopologyString(t *testing.T) {
	if TopoChain.String() != "chain" || TopoCyclePlus3.String() != "cycle+3" ||
		TopoStar.String() != "star" || TopoClique.String() != "clique" {
		t.Error("topology names do not match the paper")
	}
	if Topology(99).String() == "" {
		t.Error("unknown topology String empty")
	}
}

func TestCycleStarCliqueGridShapes(t *testing.T) {
	if got := len(CycleEdges(6)); got != 6 {
		t.Errorf("cycle(6) edges = %d", got)
	}
	if got := len(StarEdges(6, 0)); got != 5 {
		t.Errorf("star(6) edges = %d", got)
	}
	if got := len(CliqueEdges(6)); got != 15 {
		t.Errorf("clique(6) edges = %d", got)
	}
	if got := len(GridEdges(3, 4)); got != 3*3+2*4 { // horizontal + vertical
		t.Errorf("grid(3,4) edges = %d, want 17", got)
	}
	g := uniformGraph(12, GridEdges(3, 4))
	if !g.Connected(bitset.Full(12)) {
		t.Error("grid not connected")
	}
}

func TestRandomConnectedEdges(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		n := 10
		edges := RandomConnectedEdges(n, 5, seed)
		if len(edges) != n-1+5 {
			t.Fatalf("seed %d: %d edges, want %d", seed, len(edges), n-1+5)
		}
		g := uniformGraph(n, edges)
		if !g.Connected(bitset.Full(n)) {
			t.Errorf("seed %d: not connected", seed)
		}
	}
	a := RandomConnectedEdges(8, 3, 42)
	b := RandomConnectedEdges(8, 3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomConnectedEdges is not deterministic")
		}
	}
}

func TestCardinalityLadder(t *testing.T) {
	// Variability 0: all equal to mean.
	cards := CardinalityLadder(15, 100, 0)
	for _, c := range cards {
		if math.Abs(c-100) > 1e-9 {
			t.Fatalf("variability 0 ladder = %v", cards)
		}
	}
	// Variability 1: |R0| = 1, |Rn−1| = mean².
	cards = CardinalityLadder(15, 100, 1)
	if math.Abs(cards[0]-1) > 1e-9 {
		t.Errorf("|R0| = %v, want 1", cards[0])
	}
	if relDiff(cards[14], 100*100) > 1e-9 {
		t.Errorf("|R14| = %v, want 10000", cards[14])
	}
	// Geometric mean is preserved for any variability.
	for _, v := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cards := CardinalityLadder(15, 464, v)
		logSum := 0.0
		for _, c := range cards {
			logSum += math.Log(c)
		}
		if got := math.Exp(logSum / 15); relDiff(got, 464) > 1e-9 {
			t.Errorf("variability %v: geo mean = %v, want 464", v, got)
		}
		// Constant ratio between successive cardinalities.
		for i := 2; i < 15; i++ {
			r1 := cards[i] / cards[i-1]
			r0 := cards[1] / cards[0]
			if relDiff(r1, r0) > 1e-9 {
				t.Errorf("variability %v: ratios differ: %v vs %v", v, r1, r0)
			}
		}
	}
	if got := CardinalityLadder(1, 50, 0.5); len(got) != 1 || got[0] != 50 {
		t.Errorf("single-relation ladder = %v", got)
	}
	if CardinalityLadder(0, 10, 0) != nil {
		t.Error("empty ladder should be nil")
	}
}

func TestCardinalityLadderPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { CardinalityLadder(5, 0.5, 0) },
		func() { CardinalityLadder(5, 10, -0.1) },
		func() { CardinalityLadder(5, 10, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ladder params did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestAppendixSelectivityYieldsMu: the Appendix asserts the selectivity
// assignment makes the full query result cardinality exactly μ.
func TestAppendixSelectivityYieldsMu(t *testing.T) {
	n := 15
	for _, topo := range AllTopologies {
		for _, mean := range []float64{1, 4.64, 100, 1e4, 1e6} {
			for _, v := range []float64{0, 0.5, 1} {
				cards := CardinalityLadder(n, mean, v)
				g := Build(topo.Edges(n), cards)
				got := g.JoinCardinality(bitset.Full(n), cards)
				if relDiff(got, mean) > 1e-6 {
					t.Errorf("%v mean=%v var=%v: result cardinality = %v, want μ", topo, mean, v, got)
				}
			}
		}
	}
}

func TestBuildSelectivitiesInRange(t *testing.T) {
	n := 15
	for _, topo := range AllTopologies {
		for _, mean := range []float64{1, 21.5, 464, 1e6} {
			for _, v := range []float64{0, 0.25, 0.75, 1} {
				cards := CardinalityLadder(n, mean, v)
				g := Build(topo.Edges(n), cards)
				for _, e := range g.Edges() {
					if !(e.Selectivity > 0 && e.Selectivity <= 1) {
						t.Errorf("%v mean=%v var=%v: edge %+v out of range", topo, mean, v, e)
					}
				}
			}
		}
	}
}

func TestBuildEdgeless(t *testing.T) {
	g := Build(nil, []float64{10, 20})
	if len(g.Edges()) != 0 || g.N() != 2 {
		t.Errorf("edgeless Build wrong: n=%d edges=%d", g.N(), len(g.Edges()))
	}
}

func TestSpanProductProperty(t *testing.T) {
	// Π_span(U,V) · Π_span(W,V) == Π_span(U∪W, V) for disjoint U, W (both
	// disjoint from V): spanning-edge sets are disjoint and union correctly.
	f := func(rawU, rawW, rawV uint16) bool {
		u := bitset.Set(rawU) & bitset.Full(10)
		w := bitset.Set(rawW) & bitset.Full(10) &^ u
		v := bitset.Set(rawV) & bitset.Full(10) &^ (u | w)
		rng := rand.New(rand.NewSource(int64(rawU)*31 + int64(rawW)))
		g := randomGraph(rng, 10)
		lhs := g.SpanProduct(u, v) * g.SpanProduct(w, v)
		rhs := g.SpanProduct(u.Union(w), v)
		return relDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
