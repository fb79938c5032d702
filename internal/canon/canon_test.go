package canon

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// permuteQuery relabels relation i as perm[i], mirroring the metamorphic
// harness in internal/check.
func permuteQuery(q core.Query, perm []int) core.Query {
	n := len(q.Cards)
	cards := make([]float64, n)
	for i, c := range q.Cards {
		cards[perm[i]] = c
	}
	var g *joingraph.Graph
	if q.Graph != nil {
		g = joingraph.New(n)
		for _, e := range q.Graph.Edges() {
			g.MustAddEdge(perm[e.A], perm[e.B], e.Selectivity)
		}
	}
	return core.Query{Cards: cards, Graph: g}
}

// permutations yields all n! permutations of 0..n-1 (small n only).
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

func chainQuery(cards []float64, sels []float64) core.Query {
	g := joingraph.New(len(cards))
	for i, s := range sels {
		g.MustAddEdge(i, i+1, s)
	}
	return core.Query{Cards: cards, Graph: g}
}

func TestCanonicalizeRejectsInvalid(t *testing.T) {
	if _, err := Canonicalize(core.Query{}, Options{}); err == nil {
		t.Fatal("empty query: want validation error")
	}
	if _, err := Canonicalize(core.Query{Cards: []float64{-1, 2}}, Options{}); err == nil {
		t.Fatal("negative cardinality: want validation error")
	}
}

// With distinct cardinalities refinement separates every relation in the
// first round: the canonicalization is Exact and the fingerprint must be
// byte-identical across every one of the n! relabelings.
func TestFingerprintInvariantUnderPermutation(t *testing.T) {
	base := chainQuery([]float64{100, 2000, 30, 471}, []float64{0.1, 0.01, 0.5})
	ref, err := Canonicalize(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Exact {
		t.Fatal("distinct cardinalities should canonicalize exactly")
	}
	for _, perm := range permutations(4) {
		cn, err := Canonicalize(permuteQuery(base, perm), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cn.Fingerprint != ref.Fingerprint {
			t.Fatalf("perm %v: fingerprint diverged", perm)
		}
		if !cn.Exact {
			t.Fatalf("perm %v: lost exactness", perm)
		}
	}
}

// Equal labels on a symmetric topology leave refinement stuck on one color
// class; individualization must still terminate with a valid permutation,
// and because a cycle's equal-label vertices are all automorphic, every
// relabeling of the cycle must reach the same fingerprint.
func TestSymmetricCycleCanonicalizes(t *testing.T) {
	n := 5
	g := joingraph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n, 0.1)
	}
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = 1000
	}
	base := core.Query{Cards: cards, Graph: g}
	ref, err := Canonicalize(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Exact {
		t.Fatal("fully symmetric cycle cannot be Exact")
	}
	if err := mustValidPerm(ref.ToCanon, n); err != nil {
		t.Fatal(err)
	}
	for _, perm := range permutations(n) {
		cn, err := Canonicalize(permuteQuery(base, perm), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cn.Fingerprint != ref.Fingerprint {
			t.Fatalf("perm %v: automorphic tie broke fingerprint stability", perm)
		}
	}
}

// The classic WL-indistinguishable pair: a 6-cycle versus two disjoint
// triangles. Same vertex count, same degree sequence, same labels — but
// non-isomorphic, so their fingerprints must differ (the fingerprint is a
// full serialization, not a hash, so aliasing would serve a wrong plan).
func TestNonIsomorphicNeverAlias(t *testing.T) {
	cards := []float64{50, 50, 50, 50, 50, 50}
	c6 := joingraph.New(6)
	for i := 0; i < 6; i++ {
		c6.MustAddEdge(i, (i+1)%6, 0.2)
	}
	kk := joingraph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		kk.MustAddEdge(e[0], e[1], 0.2)
	}
	a, err := Canonicalize(core.Query{Cards: cards, Graph: c6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(core.Query{Cards: cards, Graph: kk}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("C6 and 2×K3 share a fingerprint: non-isomorphic aliasing")
	}
	// Selectivities enter the fingerprint bit for bit: a 3% difference is a
	// different query, never a shared cache entry.
	x, _ := Canonicalize(chainQuery([]float64{100, 200, 300}, []float64{0.100, 0.01}), Options{})
	y, _ := Canonicalize(chainQuery([]float64{100, 200, 300}, []float64{0.103, 0.01}), Options{})
	if x.Fingerprint == y.Fingerprint {
		t.Fatal("chains differing in one selectivity share a fingerprint")
	}
}

// The canonical query must be an exact relabeling of the input: cards
// permuted bitwise, every edge present under the mapping with its
// selectivity bits intact, and ToOrig inverting ToCanon.
func TestCanonicalQueryIsRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = math.Trunc(rng.Float64()*1e6) + 1
		}
		g := joingraph.New(n)
		edgeCount := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.4 {
					g.MustAddEdge(a, b, rng.Float64())
					edgeCount++
				}
			}
		}
		q := core.Query{Cards: cards, Graph: g}
		cn, err := Canonicalize(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mustValidPerm(cn.ToCanon, n); err != nil {
			t.Fatal(err)
		}
		cq := cn.Query()
		for i, c := range cn.ToCanon {
			if cn.ToOrig[c] != i {
				t.Fatalf("trial %d: ToOrig does not invert ToCanon", trial)
			}
			if math.Float64bits(cq.Cards[c]) != math.Float64bits(cards[i]) {
				t.Fatalf("trial %d: cardinality of relation %d not preserved", trial, i)
			}
		}
		canonEdges := cq.Graph.Edges()
		if len(canonEdges) != edgeCount {
			t.Fatalf("trial %d: edge count %d, want %d", trial, len(canonEdges), edgeCount)
		}
		for _, e := range g.Edges() {
			if !cq.Graph.HasEdge(cn.ToCanon[e.A], cn.ToCanon[e.B]) {
				t.Fatalf("trial %d: edge %d–%d missing after relabeling", trial, e.A, e.B)
			}
			sel := cq.Graph.Selectivity(cn.ToCanon[e.A], cn.ToCanon[e.B])
			if math.Float64bits(sel) != math.Float64bits(e.Selectivity) {
				t.Fatalf("trial %d: selectivity of %d–%d changed", trial, e.A, e.B)
			}
		}
	}
}

// Random-query invariance sweep: when the reference canonicalization is
// Exact, every random relabeling must reproduce its fingerprint.
func TestRandomInvarianceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = math.Trunc(rng.Float64()*1e7) + 1
		}
		g := joingraph.New(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					g.MustAddEdge(a, b, rng.Float64())
				}
			}
		}
		q := core.Query{Cards: cards, Graph: g}
		ref, err := Canonicalize(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Exact {
			continue // ties: stability is only promised on automorphic orbits
		}
		for k := 0; k < 5; k++ {
			cn, err := Canonicalize(permuteQuery(q, rng.Perm(n)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cn.Fingerprint != ref.Fingerprint {
				t.Fatalf("trial %d: exact canonicalization not invariant", trial)
			}
		}
	}
}

func TestFoldSelectivities(t *testing.T) {
	if got := FoldSelectivities([]float64{0.25}); got != 0.25 {
		t.Fatalf("single selectivity must pass through, got %v", got)
	}
	// Declaration order must not change the folded value even bitwise:
	// folding sorts before multiplying.
	x := []float64{0.1, 0.7, 0.3}
	y := []float64{0.7, 0.3, 0.1}
	if math.Float64bits(FoldSelectivities(x)) != math.Float64bits(FoldSelectivities(y)) {
		t.Fatal("fold is order-dependent")
	}
	got := FoldSelectivities([]float64{0.5, 0.5})
	if got != 0.25 {
		t.Fatalf("0.5·0.5 = %v, want 0.25", got)
	}
	// A product that underflows to zero clamps to the smallest positive
	// double instead of producing an invalid selectivity.
	tiny := make([]float64, 25)
	for i := range tiny {
		tiny[i] = 1e-300
	}
	if got := FoldSelectivities(tiny); got != math.SmallestNonzeroFloat64 {
		t.Fatalf("underflow clamp: got %v", got)
	}
}

func TestRelabelPlanRoundTrip(t *testing.T) {
	leaf := func(i int, card float64) *plan.Node {
		return &plan.Node{Set: bitset.Of(i), Rel: i, Card: card, Cost: 0}
	}
	join := func(l, r *plan.Node) *plan.Node {
		return &plan.Node{
			Set:  l.Set.Union(r.Set),
			Card: l.Card * r.Card,
			Cost: l.Cost + r.Cost + l.Card*r.Card,
			Left: l, Right: r,
		}
	}
	p := join(join(leaf(0, 10), leaf(2, 30)), leaf(1, 20))
	perm := []int{2, 0, 1}
	inv := []int{1, 2, 0}
	rt := RelabelPlan(RelabelPlan(p, perm), inv)
	var checkEq func(a, b *plan.Node)
	checkEq = func(a, b *plan.Node) {
		if (a == nil) != (b == nil) {
			t.Fatal("round trip changed shape")
		}
		if a == nil {
			return
		}
		if a.Set != b.Set || a.Rel != b.Rel ||
			math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
			math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
			t.Fatalf("round trip changed node: %+v vs %+v", a, b)
		}
		checkEq(a.Left, b.Left)
		checkEq(a.Right, b.Right)
	}
	checkEq(p, rt)

	// Relabeling must not mutate its input.
	mapped := RelabelPlan(p, perm)
	if p.Left.Left.Rel != 0 || mapped.Left.Left.Rel != 2 {
		t.Fatal("RelabelPlan mutated its input or mapped wrongly")
	}
	if RelabelPlan(nil, perm) != nil {
		t.Fatal("nil plan must relabel to nil")
	}
}
