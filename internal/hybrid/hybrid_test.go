package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

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

func chainQuery(n int, mean float64) ([]float64, *joingraph.Graph) {
	cards := joingraph.CardinalityLadder(n, mean, 0.5)
	return cards, joingraph.Build(joingraph.AppendixChainEdges(n), cards)
}

func TestValidation(t *testing.T) {
	if _, err := Greedy(nil, nil, cost.Naive{}); err == nil {
		t.Error("empty query accepted by Greedy")
	}
	if _, err := IDP([]float64{1, 2}, joingraph.New(3), cost.Naive{}, IDPOptions{}); err == nil {
		t.Error("mismatched graph accepted by IDP")
	}
}

func TestGreedyProducesValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		cards, g := chainQuery(maxInt(n, 2), 100)
		res, err := Greedy(cards, g, cost.NewDiskNestedLoops())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Plan.Set != bitset.Full(len(cards)) {
			t.Fatalf("trial %d: plan covers %v", trial, res.Plan.Set)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestGreedyNeverBeatsExact: greedy is a heuristic; it can only be ≥ the
// exhaustive optimum, and its plan's recomputed cost must match its reported
// cost.
func TestGreedyNeverBeatsExact(t *testing.T) {
	for _, n := range []int{5, 8, 11} {
		cards, g := chainQuery(n, 464)
		m := cost.NewDiskNestedLoops()
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Greedy(cards, g, m)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Cost < exact.Cost*(1-1e-9) {
			t.Errorf("n=%d: greedy %v beats exact %v", n, greedy.Cost, exact.Cost)
		}
		cp := greedy.Plan.Clone()
		cp.RecomputeCards(g, cards)
		if got := cp.RecomputeCost(m); relDiff(got, greedy.Cost) > 1e-9 {
			t.Errorf("n=%d: greedy reported %v, recomputed %v", n, greedy.Cost, got)
		}
	}
}

// TestIDPWithFullBlockIsExact: K ≥ n degenerates to exact DP — the cost must
// equal blitzsplit's.
func TestIDPWithFullBlockIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = math.Floor(1 + rng.Float64()*300)
		}
		g := joingraph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					g.MustAddEdge(i, j, 0.01+0.99*rng.Float64())
				}
			}
		}
		m := cost.SortMerge{}
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		idp, err := IDP(cards, g, m, IDPOptions{K: n})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(idp.Cost, exact.Cost) > 1e-9 {
			t.Errorf("trial %d: IDP(K=n) %v ≠ exact %v", trial, idp.Cost, exact.Cost)
		}
		if idp.DPRounds != 1 {
			t.Errorf("trial %d: DPRounds = %d", trial, idp.DPRounds)
		}
		if err := idp.Plan.Validate(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestIDPQualityBetweenGreedyAndExact: small-block IDP must be ≥ exact and
// its plan must be valid; on chains it should usually match or beat greedy.
func TestIDPQualityBounds(t *testing.T) {
	for _, n := range []int{10, 13} {
		cards, g := chainQuery(n, 464)
		m := cost.NewDiskNestedLoops()
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{3, 5, 8} {
			idp, err := IDP(cards, g, m, IDPOptions{K: k})
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if idp.Cost < exact.Cost*(1-1e-9) {
				t.Errorf("n=%d k=%d: IDP %v beats exact %v", n, k, idp.Cost, exact.Cost)
			}
			if err := idp.Plan.Validate(); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
			if idp.Plan.Set != bitset.Full(n) {
				t.Errorf("n=%d k=%d: coverage %v", n, k, idp.Plan.Set)
			}
			// Reported cost must equal the plan's recomputed cost.
			cp := idp.Plan.Clone()
			cp.RecomputeCards(g, cards)
			if got := cp.RecomputeCost(m); relDiff(got, idp.Cost) > 1e-9 {
				t.Errorf("n=%d k=%d: reported %v, recomputed %v", n, k, idp.Cost, got)
			}
		}
	}
}

// TestIDPHandlesLargeN: a 24-relation chain — beyond comfortable exhaustive
// search on one core — optimizes in seconds with K=8 and stays within a
// small factor of greedy. (IDP-1's block-collapse heuristic is not
// guaranteed to dominate greedy; ChainedLocal exists to close that gap.)
func TestIDPHandlesLargeN(t *testing.T) {
	n := 24
	cards, g := chainQuery(n, 464)
	m := cost.NewDiskNestedLoops()
	start := time.Now()
	idp, err := IDP(cards, g, m, IDPOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("IDP took %v", elapsed)
	}
	greedy, err := Greedy(cards, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if idp.Cost > greedy.Cost*2 {
		t.Errorf("IDP %v far worse than greedy %v on a chain", idp.Cost, greedy.Cost)
	}
	if err := idp.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if idp.DPRounds < 2 {
		t.Errorf("expected multiple DP rounds, got %d", idp.DPRounds)
	}
}

// TestChainedLocalNeverWorseThanIDP: the §7 hybrid's polishing step can only
// improve the IDP seed.
func TestChainedLocalNeverWorseThanIDP(t *testing.T) {
	n := 16
	cards, g := chainQuery(n, 100)
	m := cost.SortMerge{}
	opts := IDPOptions{K: 5, Stochastic: baseline.StochasticOptions{Seed: 3}}
	idp, err := IDP(cards, g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := ChainedLocal(cards, g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Cost > idp.Cost*(1+1e-9) {
		t.Errorf("ChainedLocal %v worse than its IDP seed %v", hybrid.Cost, idp.Cost)
	}
	if err := hybrid.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if hybrid.Considered <= idp.Considered {
		t.Error("polishing phase did not consider any plans")
	}
}

// TestGreedyCartesianOnly: greedy on a predicate-free query joins smallest
// pairs first — check the first join is the two smallest relations.
func TestGreedyCartesianOnly(t *testing.T) {
	cards := []float64{50, 3, 7, 1000}
	res, err := Greedy(cards, nil, cost.Naive{})
	if err != nil {
		t.Fatal(err)
	}
	// Deepest join must be {R1, R2} (3·7 = 21, the smallest product).
	found := false
	res.Plan.Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Set == bitset.Of(1, 2) {
			found = true
		}
	})
	if !found {
		t.Errorf("greedy did not product the smallest pair first:\n%s", res.Plan)
	}
}

// TestIDPEnumeratorCCPExact: with the block covering every unit, boundedDP
// under a CCP enumerator is an exact optimizer of the Cartesian-product-free
// space — on a chain (where no product can help) its cost must match the
// core CCP enumerator's optimum.
func TestIDPEnumeratorCCPExact(t *testing.T) {
	const n = 12
	cards, g := chainQuery(n, 300)
	m := cost.NewDiskNestedLoops()
	idp, err := IDP(cards, g, m, IDPOptions{K: n, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Optimize(core.Query{Cards: cards, Graph: g},
		core.Options{Model: m, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(idp.Cost, exact.Cost) > 1e-9 {
		t.Errorf("IDP/CCP K=n cost %v, core CCP optimum %v", idp.Cost, exact.Cost)
	}
	if err := idp.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

// TestIDPEnumeratorCCPBounded: the CCP guard in bounded rounds skips
// Cartesian splits (fewer splits costed than the full scan) and still emits
// a valid, cost-consistent full plan.
func TestIDPEnumeratorCCPBounded(t *testing.T) {
	const n, k = 16, 6
	cards, g := chainQuery(n, 250)
	m := cost.NewDiskNestedLoops()
	full, err := IDP(cards, g, m, IDPOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ccpRes, err := IDP(cards, g, m, IDPOptions{K: k, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	if ccpRes.Considered >= full.Considered {
		t.Errorf("CCP rounds costed %d splits, full scan %d — guard had no effect",
			ccpRes.Considered, full.Considered)
	}
	if err := ccpRes.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if ccpRes.Plan.Set != bitset.Full(n) {
		t.Fatalf("coverage %v", ccpRes.Plan.Set)
	}
	cp := ccpRes.Plan.Clone()
	cp.RecomputeCards(g, cards)
	if got := cp.RecomputeCost(m); relDiff(got, ccpRes.Cost) > 1e-9 {
		t.Errorf("reported %v, recomputed %v", ccpRes.Cost, got)
	}
}

// TestIDPEnumeratorDisconnectedFallback: a disconnected graph is ineligible
// for the CCP restriction, so unlike core.Optimize the hybrid must not error
// — rounds whose unit graph is disconnected fall back to the full scan (a
// round can become connected after an earlier round merges components, so
// per-round eligibility, not whole-query eligibility, governs the guard).
// The result must be a valid, covering, cost-consistent plan either way.
func TestIDPEnumeratorDisconnectedFallback(t *testing.T) {
	cards := []float64{50, 60, 70, 80, 90, 100}
	g := joingraph.Build([]joingraph.Pair{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, cards)
	m := cost.NewDiskNestedLoops()
	for _, e := range []core.Enumerator{core.EnumeratorCCP, core.EnumeratorAuto} {
		res, err := IDP(cards, g, m, IDPOptions{K: 4, Enumerator: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res.Plan.Set != bitset.Full(len(cards)) {
			t.Fatalf("%v: coverage %v", e, res.Plan.Set)
		}
		cp := res.Plan.Clone()
		cp.RecomputeCards(g, cards)
		if got := cp.RecomputeCost(m); relDiff(got, res.Cost) > 1e-9 {
			t.Errorf("%v: reported %v, recomputed %v", e, res.Cost, got)
		}
	}
	// Round 1's unit graph is disconnected, so its full scan runs unguarded:
	// the first collapse must succeed exactly as the default's does.
	def, err := IDP(cards, g, m, IDPOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	one, err := IDP(cards, g, m, IDPOptions{K: 6, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	// K = 6 covers all units in one round, so the whole run is one
	// disconnected-graph round: results must be bit-identical.
	if one.Cost != def.Cost || one.Considered != def.Considered || !one.Plan.Equal(def.Plan) {
		t.Error("single disconnected round diverged from the default scan")
	}
}

// TestLayoutPositions: for every u ≤ 12 and block ≤ u, Gosper's hack walks
// the subsets of each size 1 … block to positions 0, 1, …, size−1 in turn,
// so pos maps the subsets of at most block units one-to-one onto
// [0, size) in the order the DP fills them. subsetPositions agrees with pos
// on every subset of each such subset.
func TestLayoutPositions(t *testing.T) {
	for u := 1; u <= 12; u++ {
		for block := 1; block <= u; block++ {
			lay := newLayout(u, block)
			at := make([]int, 1<<uint(block))
			next := 0
			for k := 1; k <= block; k++ {
				last := bitset.LastKSubset(u, k)
				for s := bitset.FirstKSubset(k); ; s = bitset.NextKSubset(s) {
					if got := lay.pos(s); got != next {
						t.Fatalf("u=%d block=%d: pos(%v) = %d, want %d", u, block, s, got, next)
					}
					next++
					lay.subsetPositions(s, at)
					for j := 1; j < 1<<uint(k); j++ {
						if sub := s.Dilate(uint64(j)); at[j] != lay.pos(sub) {
							t.Fatalf("u=%d block=%d s=%v: at[%d] = %d, pos(%v) = %d",
								u, block, s, j, at[j], sub, lay.pos(sub))
						}
					}
					if s == last {
						break
					}
				}
			}
			if next != lay.size {
				t.Fatalf("u=%d block=%d: %d subsets, size %d", u, block, next, lay.size)
			}
		}
	}
}

// TestIDPGolden pins IDP's and ChainedLocal's answers bit for bit on seven
// shapes, so a change to the DP's table layout or scan order cannot move a
// tie silently. In uniform14 every block-sized subset of a round ties on
// cost and cardinality, so the smallest-set rule picks the winner. The
// values were recorded from the dense 2^u-table implementation that the
// per-round layout replaced.
func TestIDPGolden(t *testing.T) {
	type want struct {
		cost       uint64 // math.Float64bits of the plan cost
		considered uint64
		plan       string
	}
	star := func(n int) []joingraph.Pair { return joingraph.StarEdges(n, 0) }
	random := func(n int) []joingraph.Pair { return joingraph.RandomConnectedEdges(n, n/2, 7) }
	for _, c := range []struct {
		name         string
		n, k         int
		spread       float64                      // CardinalityLadder variability
		edges        func(n int) []joingraph.Pair // nil: no join graph
		model        string
		e            core.Enumerator
		idp, chained want
	}{
		{"chain14", 14, 4, 0.5, joingraph.AppendixChainEdges, "naive", core.EnumeratorBlitz,
			want{0x409e46b64e274016, 23624, "((R3 ⨝ (R9 ⨝ (R2 ⨝ ((R1 ⨝ (R0 ⨝ R7)) ⨝ R8)))) ⨝ (R10 ⨝ (R4 ⨝ (R11 ⨝ (R5 ⨝ (R12 ⨝ (R6 ⨝ R13)))))))"},
			want{0x409e46b64e274016, 23680, "((R3 ⨝ (R9 ⨝ (R2 ⨝ ((R1 ⨝ (R0 ⨝ R7)) ⨝ R8)))) ⨝ (R10 ⨝ (R4 ⨝ (R11 ⨝ (R5 ⨝ (R12 ⨝ (R6 ⨝ R13)))))))"}},
		{"star16", 16, 6, 0.5, star, "sortmerge", core.EnumeratorAuto,
			want{0x41027231922852d1, 49410, "(R11 ⨝ (R13 ⨝ (R14 ⨝ (R12 ⨝ (R15 ⨝ (R7 ⨝ (R6 ⨝ (R9 ⨝ (R10 ⨝ (R8 ⨝ (R1 ⨝ (R4 ⨝ (R2 ⨝ (R3 ⨝ (R0 ⨝ R5)))))))))))))))"},
			want{0x41027231922852d1, 49474, "(R11 ⨝ (R13 ⨝ (R14 ⨝ (R12 ⨝ (R15 ⨝ (R7 ⨝ (R6 ⨝ (R9 ⨝ (R10 ⨝ (R8 ⨝ (R1 ⨝ (R4 ⨝ (R2 ⨝ (R3 ⨝ (R0 ⨝ R5)))))))))))))))"}},
		{"cycle18", 18, 8, 0.5, joingraph.CycleEdges, "dnl", core.EnumeratorBlitz,
			want{0x40d3889475582afb, 16712170, "(((((R0 ⨝ R1) ⨝ R2) ⨝ (R3 ⨝ R4)) ⨝ ((R5 ⨝ R6) ⨝ R7)) ⨝ ((R16 ⨝ R17) ⨝ ((((R8 ⨝ R9) ⨝ R10) ⨝ (R11 ⨝ R12)) ⨝ ((R13 ⨝ R14) ⨝ R15))))"},
			want{0x40d01dbee503c69a, 16712309, "(((((R0 ⨝ R1) ⨝ R2) ⨝ (R3 ⨝ R4)) ⨝ (R16 ⨝ R17)) ⨝ (((((R5 ⨝ R6) ⨝ R7) ⨝ ((R8 ⨝ R9) ⨝ R10)) ⨝ (R11 ⨝ R12)) ⨝ ((R13 ⨝ R14) ⨝ R15)))"}},
		{"random20", 20, 6, 0.5, random, "dnl", core.EnumeratorAuto,
			want{0x40d7fdafcc6b433f, 37314, "((R2 ⨝ R9) ⨝ (R18 ⨝ (((R0 ⨝ R7) ⨝ (((R6 ⨝ R11) ⨝ R13) ⨝ R17)) ⨝ ((R14 ⨝ R19) ⨝ (((R4 ⨝ R12) ⨝ R15) ⨝ ((R1 ⨝ R3) ⨝ ((R8 ⨝ R10) ⨝ (R5 ⨝ R16))))))))"},
			want{0x40d7cba1e6aed249, 37413, "((R2 ⨝ R9) ⨝ (R18 ⨝ (((R0 ⨝ R7) ⨝ (((R6 ⨝ R11) ⨝ R13) ⨝ R17)) ⨝ ((R14 ⨝ R19) ⨝ (((R4 ⨝ R12) ⨝ (R15 ⨝ (R1 ⨝ R3))) ⨝ ((R8 ⨝ R10) ⨝ (R5 ⨝ R16)))))))"}},
		{"chain22", 22, 6, 0.5, joingraph.AppendixChainEdges, "sortmerge", core.EnumeratorBlitz,
			want{0x41512f30bcd6b5dc, 6610000, "(((R9 ⨝ (R8 ⨝ R19)) ⨝ (R14 ⨝ (R13 ⨝ (R3 ⨝ (R2 ⨝ ((R1 ⨝ (R0 ⨝ R11)) ⨝ R12)))))) ⨝ ((R20 ⨝ (R10 ⨝ R21)) ⨝ (R18 ⨝ (R17 ⨝ (R7 ⨝ ((R4 ⨝ R15) ⨝ (R6 ⨝ (R5 ⨝ R16))))))))"},
			want{0x410ff1e40be33066, 6610147, "(((R9 ⨝ (R8 ⨝ R19)) ⨝ (R20 ⨝ (R10 ⨝ R21))) ⨝ ((R14 ⨝ ((R13 ⨝ R3) ⨝ (R2 ⨝ ((R1 ⨝ (R0 ⨝ R11)) ⨝ R12)))) ⨝ (R18 ⨝ ((R17 ⨝ R7) ⨝ ((R4 ⨝ R15) ⨝ (R6 ⨝ (R5 ⨝ R16)))))))"}},
		{"edgeless17", 17, 4, 0.5, nil, "naive", core.EnumeratorBlitz,
			want{0x48ada62d35e3b796, 61296, "(((R13 ⨝ R14) ⨝ (R12 ⨝ R15)) ⨝ ((((R1 ⨝ R2) ⨝ (R0 ⨝ R3)) ⨝ ((R5 ⨝ R6) ⨝ (R4 ⨝ R7))) ⨝ (R16 ⨝ ((R9 ⨝ R10) ⨝ (R8 ⨝ R11)))))"},
			want{0x48ada62d35e3b5fc, 61405, "((((R13 ⨝ R14) ⨝ R12) ⨝ (((R1 ⨝ R2) ⨝ (R0 ⨝ R3)) ⨝ ((R5 ⨝ R4) ⨝ (R6 ⨝ R7)))) ⨝ (R15 ⨝ (R16 ⨝ (R9 ⨝ (R10 ⨝ (R8 ⨝ R11))))))"}},
		{"uniform14", 14, 4, 0, nil, "naive", core.EnumeratorBlitz,
			want{0x47226c5f1f2a9c8a, 23624, "(((R8 ⨝ R9) ⨝ (R10 ⨝ R11)) ⨝ ((R12 ⨝ ((R0 ⨝ R1) ⨝ (R2 ⨝ R3))) ⨝ (R13 ⨝ ((R4 ⨝ R5) ⨝ (R6 ⨝ R7)))))"},
			want{0x47226c5f1f20d7b9, 23685, "(((R8 ⨝ R9) ⨝ (R12 ⨝ ((R0 ⨝ R1) ⨝ (R2 ⨝ R3)))) ⨝ ((R10 ⨝ R11) ⨝ (R13 ⨝ ((R4 ⨝ R5) ⨝ (R6 ⨝ R7)))))"}},
	} {
		cards := joingraph.CardinalityLadder(c.n, 300, c.spread)
		var g *joingraph.Graph
		if c.edges != nil {
			g = joingraph.Build(c.edges(c.n), cards)
		}
		m, err := cost.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		opts := IDPOptions{K: c.k, Enumerator: c.e, Stochastic: baseline.StochasticOptions{Seed: 1}}
		for _, run := range []struct {
			name string
			fn   func([]float64, *joingraph.Graph, cost.Model, IDPOptions) (*Result, error)
			want want
		}{{"IDP", IDP, c.idp}, {"ChainedLocal", ChainedLocal, c.chained}} {
			res, err := run.fn(cards, g, m, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, run.name, err)
			}
			got := want{math.Float64bits(res.Cost), res.Considered, res.Plan.Expression(nil)}
			if got != run.want {
				t.Errorf("%s %s:\n got %#x, %d, %s\nwant %#x, %d, %s", c.name, run.name,
					got.cost, got.considered, got.plan, run.want.cost, run.want.considered, run.want.plan)
			}
		}
	}
}

// BenchmarkIDP times IDP on chains at the ladder's block size (K = 6, the
// naive model) and the hybrid experiment's (K = 8, disk nested loops).
func BenchmarkIDP(b *testing.B) {
	for _, c := range []struct {
		n, k  int
		e     core.Enumerator
		model string
	}{
		{12, 6, core.EnumeratorBlitz, "naive"},
		{16, 6, core.EnumeratorBlitz, "naive"},
		{20, 6, core.EnumeratorBlitz, "naive"},
		{22, 6, core.EnumeratorBlitz, "naive"},
		{26, 6, core.EnumeratorBlitz, "naive"},
		{20, 6, core.EnumeratorAuto, "naive"},
		{15, 8, core.EnumeratorBlitz, "dnl"},
		{18, 8, core.EnumeratorBlitz, "dnl"},
		{21, 8, core.EnumeratorBlitz, "dnl"},
		{24, 8, core.EnumeratorBlitz, "dnl"},
	} {
		m, err := cost.ByName(c.model)
		if err != nil {
			b.Fatal(err)
		}
		cards, g := chainQuery(c.n, 464)
		opts := IDPOptions{K: c.k, Enumerator: c.e}
		b.Run(fmt.Sprintf("n=%d/k=%d/%v/%s", c.n, c.k, c.e, c.model), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := IDP(cards, g, m, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
