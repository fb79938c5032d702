package joingraph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file implements the join-graph topologies and parameter formulas of
// the paper's Appendix: the chain wiring R0-R8-R1-R9-…-R7, the "cycle+3"
// augmentation, star and clique graphs, the base-relation cardinality ladder
// derived from (geometric mean, variability), and the selectivity formula
//
//	selec(i,j) = μ^{1/k} · |Ri|^{−1/k_i} · |Rj|^{−1/k_j}
//
// which makes the full query result cardinality come out to exactly μ.

// Pair is an unordered relation pair, the endpoints of a prospective edge.
type Pair [2]int

// AppendixChainOrder returns the node sequence of the Appendix chain for n
// relations. For n = 15 it is exactly the paper's
// R0-R8-R1-R9-R2-R10-R3-R11-R4-R12-R5-R13-R6-R14-R7: the low-numbered (small)
// relations interleaved with the high-numbered (large) ones. Generalized to
// any n ≥ 1 by interleaving 0…⌈n/2⌉−1 with ⌈n/2⌉…n−1.
func AppendixChainOrder(n int) []int {
	lowCount := (n + 1) / 2
	order := make([]int, 0, n)
	for i := 0; i < lowCount; i++ {
		order = append(order, i)
		if high := lowCount + i; high < n {
			order = append(order, high)
		}
	}
	return order
}

// ChainEdges returns the edges of a chain visiting the nodes in the given
// order.
func ChainEdges(order []int) []Pair {
	if len(order) < 2 {
		return nil
	}
	out := make([]Pair, 0, len(order)-1)
	for i := 1; i < len(order); i++ {
		out = append(out, Pair{order[i-1], order[i]})
	}
	return out
}

// AppendixChainEdges is ChainEdges(AppendixChainOrder(n)).
func AppendixChainEdges(n int) []Pair { return ChainEdges(AppendixChainOrder(n)) }

// AppendixCyclePlus3Edges returns the Appendix "cycle+3" topology: the
// Appendix chain closed into a cycle, plus three cross edges. For n = 15 it
// is exactly the paper's wiring — closure R0-R7 and crosses R8-R14, R1-R6,
// R9-R13, which connect chain positions (i, n−1−i) for i = 0 (the closure)
// through 3 (the crosses). That positional rule generalizes the topology to
// any n ≥ 9 (below 9 the crosses would collide with chain edges or each
// other, so smaller n panics).
func AppendixCyclePlus3Edges(n int) []Pair {
	if n < 9 {
		panic(fmt.Sprintf("joingraph: cycle+3 needs n ≥ 9, got %d", n))
	}
	order := AppendixChainOrder(n)
	edges := ChainEdges(order)
	for i := 0; i <= 3; i++ {
		edges = append(edges, Pair{order[i], order[n-1-i]})
	}
	return edges
}

// CycleEdges returns a simple cycle 0-1-…-(n−1)-0.
func CycleEdges(n int) []Pair {
	if n < 3 {
		panic(fmt.Sprintf("joingraph: cycle needs n ≥ 3, got %d", n))
	}
	out := make([]Pair, 0, n)
	for i := 1; i < n; i++ {
		out = append(out, Pair{i - 1, i})
	}
	return append(out, Pair{0, n - 1})
}

// StarEdges returns a star with the given hub: an edge from the hub to every
// other relation. The Appendix uses hub = n−1 (R14); it notes hub = R0 gives
// similar results.
func StarEdges(n, hub int) []Pair {
	if hub < 0 || hub >= n {
		panic(fmt.Sprintf("joingraph: hub %d out of range [0,%d)", hub, n))
	}
	out := make([]Pair, 0, n-1)
	for i := 0; i < n; i++ {
		if i != hub {
			out = append(out, Pair{hub, i})
		}
	}
	return out
}

// CliqueEdges returns all n(n−1)/2 pairs.
func CliqueEdges(n int) []Pair {
	out := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{i, j})
		}
	}
	return out
}

// TreeEdges returns a balanced binary tree over n relations: relation i ≥ 1
// hangs off relation (i−1)/2. Trees sit between the chain and the star in
// connected-subset count, making them the third point of the enumerator
// speedup curve (`blitzbench -exp enumerators`); the paper's four topologies
// do not include one.
func TreeEdges(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, Pair{(i - 1) / 2, i})
	}
	return out
}

// GridEdges returns a rows×cols grid graph (an extension beyond the paper's
// four topologies, useful for ablation studies). Relation r*cols+c sits at
// grid position (r, c).
func GridEdges(rows, cols int) []Pair {
	var out []Pair
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				out = append(out, Pair{id, id + 1})
			}
			if r+1 < rows {
				out = append(out, Pair{id, id + cols})
			}
		}
	}
	return out
}

// RandomConnectedEdges returns a random spanning tree over n relations plus
// extra additional distinct random edges, generated deterministically from
// seed. Useful for probing the input space beyond the paper's fixed
// topologies.
func RandomConnectedEdges(n, extra int, seed int64) []Pair {
	return RandomConnectedEdgesRand(n, extra, rand.New(rand.NewSource(seed)))
}

// RandomConnectedEdgesRand is RandomConnectedEdges drawing from an injected
// source, so callers composing several random choices (workload generators,
// fuzz harnesses) get a single reproducible stream instead of one internal
// generator per call.
func RandomConnectedEdgesRand(n, extra int, rng *rand.Rand) []Pair {
	perm := rng.Perm(n)
	used := map[Pair]bool{}
	var out []Pair
	addPair := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		p := Pair{a, b}
		if used[p] {
			return false
		}
		used[p] = true
		out = append(out, p)
		return true
	}
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node in the permutation: a
		// uniformly labelled random spanning tree shape.
		addPair(perm[i], perm[rng.Intn(i)])
	}
	maxEdges := n * (n - 1) / 2
	for extra > 0 && len(out) < maxEdges {
		if addPair(rng.Intn(n), rng.Intn(n)) {
			extra--
		}
	}
	return out
}

// CardinalityLadder implements the Appendix cardinality construction: n base
// relations with geometric mean `mean` and the given variability in [0, 1].
// |R0| = mean^(1−variability), and each successive ratio |Ri|/|Ri−1| is the
// constant mean^(2·variability/(n−1)) so that the geometric mean is exactly
// `mean`. Variability 0 makes all cardinalities equal to mean; variability 1
// makes |R0| = 1 and |Rn−1| = mean².
func CardinalityLadder(n int, mean, variability float64) []float64 {
	if n <= 0 {
		return nil
	}
	if mean < 1 {
		panic(fmt.Sprintf("joingraph: mean cardinality %v < 1", mean))
	}
	if variability < 0 || variability > 1 {
		panic(fmt.Sprintf("joingraph: variability %v outside [0,1]", variability))
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = mean
		return out
	}
	logMean := math.Log(mean)
	logFirst := (1 - variability) * logMean
	logRatio := 2 * variability * logMean / float64(n-1)
	for i := range out {
		out[i] = math.Exp(logFirst + float64(i)*logRatio)
	}
	return out
}

// Build constructs a graph over len(cards) relations with the given edges,
// assigning each edge the Appendix selectivity
//
//	selec(i,j) = μ^{1/k} · |Ri|^{−1/k_i} · |Rj|^{−1/k_j}
//
// where μ is the geometric mean of cards, k the total number of predicates
// and k_i the number of predicates incident on Ri. With these selectivities
// the full query result has cardinality exactly μ (asserted by tests).
// Computed selectivities are clamped into (0, 1]; clamping only triggers in
// degenerate corners (e.g. all cardinalities 1, where the formula yields
// exactly 1 anyway).
func Build(pairs []Pair, cards []float64) *Graph {
	n := len(cards)
	g := New(n)
	if len(pairs) == 0 {
		return g
	}
	deg := make([]int, n)
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	logMu := 0.0
	for _, c := range cards {
		if c <= 0 {
			panic(fmt.Sprintf("joingraph: nonpositive cardinality %v", c))
		}
		logMu += math.Log(c)
	}
	logMu /= float64(n)
	k := float64(len(pairs))
	for _, p := range pairs {
		a, b := p[0], p[1]
		logSel := logMu/k - math.Log(cards[a])/float64(deg[a]) - math.Log(cards[b])/float64(deg[b])
		sel := math.Exp(logSel)
		if sel > 1 {
			sel = 1
		}
		if sel <= 0 {
			sel = math.SmallestNonzeroFloat64
		}
		g.MustAddEdge(a, b, sel)
	}
	return g
}

// Topology enumerates the evaluation topologies of §6.1.
type Topology int

const (
	// TopoChain is the Appendix chain R0-R8-R1-…-R7.
	TopoChain Topology = iota
	// TopoCyclePlus3 is the chain closed into a cycle plus three cross edges
	// (n = 15 only).
	TopoCyclePlus3
	// TopoStar has hub R(n−1).
	TopoStar
	// TopoClique connects every pair.
	TopoClique
)

// String returns the paper's name for the topology.
func (t Topology) String() string {
	switch t {
	case TopoChain:
		return "chain"
	case TopoCyclePlus3:
		return "cycle+3"
	case TopoStar:
		return "star"
	case TopoClique:
		return "clique"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// AllTopologies lists the four evaluation topologies in the paper's column
// order.
var AllTopologies = []Topology{TopoChain, TopoCyclePlus3, TopoStar, TopoClique}

// Edges returns the edge pairs of topology t for n relations.
func (t Topology) Edges(n int) []Pair {
	switch t {
	case TopoChain:
		return AppendixChainEdges(n)
	case TopoCyclePlus3:
		return AppendixCyclePlus3Edges(n)
	case TopoStar:
		return StarEdges(n, n-1)
	case TopoClique:
		return CliqueEdges(n)
	}
	panic(fmt.Sprintf("joingraph: unknown topology %d", int(t)))
}
