// Package joingraph models join graphs G = (R, P): relations as nodes,
// equi-join predicates as edges carrying selectivities (paper §5.1). It
// supplies the induced-subgraph and fan machinery the blitzsplit cardinality
// recurrences rest on, reference (non-DP) implementations of those quantities
// for cross-checking, connectivity tests used by the no-Cartesian-product
// baselines, and generators for the topologies of the paper's evaluation:
// chain, cycle, cycle+k, star, clique, plus grid and seeded-random extras.
package joingraph

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"blitzsplit/internal/bitset"
)

// Edge is an undirected join predicate between two relations, with its
// selectivity. In the paper's notation the edge between Ri and Rj is the
// predicate name R̂iR̂j and selec(p) its selectivity.
type Edge struct {
	A, B        int     // endpoint relation indexes, A < B after normalization
	Selectivity float64 // in (0, 1]
}

// Graph is a join graph over n relations. The zero value is unusable; use New.
type Graph struct {
	n     int
	edges []Edge
	// sel[i·n+j] is the selectivity of the predicate joining i and j, or 1
	// if there is none (§5.4: "or to 1 if there is no such predicate"), so
	// the cardinality recurrences need no presence checks. One n×n slice,
	// row-major.
	sel []float64
	// adj[i] is the set of neighbours of relation i.
	adj []bitset.Set
}

// New returns an edgeless join graph over n relations (a pure Cartesian
// product query).
func New(n int) *Graph {
	if n < 0 || n > bitset.MaxRelations {
		panic(fmt.Sprintf("joingraph: n = %d out of range [0,%d]", n, bitset.MaxRelations))
	}
	g := &Graph{n: n, sel: make([]float64, n*n), adj: make([]bitset.Set, n)}
	for i := range g.sel {
		g.sel[i] = 1
	}
	return g
}

// N returns the number of relations.
func (g *Graph) N() int { return g.n }

// AddEdge adds a predicate between relations a and b with the given
// selectivity. Self-edges, duplicate edges and selectivities outside (0, 1]
// are rejected. (Selectivity 1 is allowed: it is a predicate that filters
// nothing but still connects the graph, affecting no-product baselines.)
func (g *Graph) AddEdge(a, b int, selectivity float64) error {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("joingraph: edge (%d,%d) out of range [0,%d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("joingraph: self-edge on relation %d", a)
	}
	if !(selectivity > 0 && selectivity <= 1) || math.IsNaN(selectivity) {
		return fmt.Errorf("joingraph: selectivity %v for edge (%d,%d) outside (0,1]", selectivity, a, b)
	}
	if g.adj[a].Has(b) {
		return fmt.Errorf("joingraph: duplicate edge (%d,%d)", a, b)
	}
	if a > b {
		a, b = b, a
	}
	g.edges = append(g.edges, Edge{A: a, B: b, Selectivity: selectivity})
	g.sel[a*g.n+b] = selectivity
	g.sel[b*g.n+a] = selectivity
	g.adj[a] = g.adj[a].Add(b)
	g.adj[b] = g.adj[b].Add(a)
	return nil
}

// MustAddEdge is AddEdge that panics on error, for generators and tests.
func (g *Graph) MustAddEdge(a, b int, selectivity float64) {
	if err := g.AddEdge(a, b, selectivity); err != nil {
		panic(err)
	}
}

// Selectivity returns the selectivity of the predicate joining a and b, or 1
// if none exists.
func (g *Graph) Selectivity(a, b int) float64 { return g.sel[a*g.n+b] }

// HasEdge reports whether a predicate connects a and b.
func (g *Graph) HasEdge(a, b int) bool { return a != b && g.adj[a].Has(b) }

// AppendEdges appends the graph's edges to dst in insertion order and
// returns the extended slice — the allocation-free counterpart of Edges for
// callers that bring their own buffer. Unlike Edges the result is not
// sorted; callers needing the canonical (A, B) order must sort themselves.
func (g *Graph) AppendEdges(dst []Edge) []Edge { return append(dst, g.edges...) }

// Edges returns a copy of the edge list, sorted by (A, B).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Neighbors returns the set of relations sharing a predicate with i.
func (g *Graph) Neighbors(i int) bitset.Set { return g.adj[i] }

// NeighborsOfSet returns the union of neighbours of the members of s, minus s
// itself: the relations reachable from s in one hop.
func (g *Graph) NeighborsOfSet(s bitset.Set) bitset.Set {
	var out bitset.Set
	s.ForEach(func(i int) { out |= g.adj[i] })
	return out.Diff(s)
}

// SpanProduct is Π_span(U, V) of equation (8): the product of selectivities of
// all predicates with one endpoint in u and the other in v. u and v need not
// partition anything; only strictly spanning edges contribute.
func (g *Graph) SpanProduct(u, v bitset.Set) float64 {
	p := 1.0
	u.ForEach(func(i int) {
		cross := g.adj[i].Intersect(v)
		cross.ForEach(func(j int) {
			p *= g.sel[i*g.n+j]
		})
	})
	return p
}

// FanProduct is Π_fan(S) of equation (9): Π_span({min S}, S − {min S}).
// It panics on the empty set; Π_fan of a singleton is 1 (empty product).
func (g *Graph) FanProduct(s bitset.Set) float64 {
	u := s.MinSet()
	return g.SpanProduct(u, s.Diff(u))
}

// JoinCardinality computes the exact §5.1 result cardinality for joining the
// relations in s: the product of their cardinalities and of the selectivities
// of all predicates in the induced subgraph. This is the reference
// implementation the optimizer's recurrences (7)–(11) are validated against;
// it is O(n + |edges|) per call rather than O(1) incremental.
func (g *Graph) JoinCardinality(s bitset.Set, cards []float64) float64 {
	card := 1.0
	s.ForEach(func(i int) { card *= cards[i] })
	for _, e := range g.edges {
		if s.Has(e.A) && s.Has(e.B) {
			card *= e.Selectivity
		}
	}
	return card
}

// Connected reports whether the subgraph induced by s is connected. The empty
// set and singletons count as connected. Used by the no-Cartesian-product
// baselines (Selinger, Ono–Lohman style), which only build plans for
// connected subsets.
func (g *Graph) Connected(s bitset.Set) bool {
	if s.IsEmpty() || s.IsSingleton() {
		return true
	}
	frontier := s.MinSet()
	reached := frontier
	for !frontier.IsEmpty() {
		next := g.NeighborsOfSet(reached).Intersect(s).Diff(reached)
		reached = reached.Union(next)
		frontier = next
	}
	return reached == s
}

// Validate checks internal consistency (used after JSON decoding).
func (g *Graph) Validate() error {
	if g.n < 0 || g.n > bitset.MaxRelations {
		return fmt.Errorf("joingraph: n = %d out of range", g.n)
	}
	seen := map[[2]int]bool{}
	for _, e := range g.edges {
		if e.A < 0 || e.B >= g.n || e.A >= e.B {
			return fmt.Errorf("joingraph: malformed edge %+v", e)
		}
		if !(e.Selectivity > 0 && e.Selectivity <= 1) {
			return fmt.Errorf("joingraph: edge %+v selectivity outside (0,1]", e)
		}
		k := [2]int{e.A, e.B}
		if seen[k] {
			return fmt.Errorf("joingraph: duplicate edge (%d,%d)", e.A, e.B)
		}
		seen[k] = true
	}
	return nil
}

type graphJSON struct {
	N     int    `json:"n"`
	Edges []Edge `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": …, "edges": […]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{N: g.n, Edges: g.Edges()})
}

// UnmarshalJSON decodes and validates a graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var raw graphJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.N < 0 || raw.N > bitset.MaxRelations {
		return errors.New("joingraph: n out of range")
	}
	fresh := New(raw.N)
	for _, e := range raw.Edges {
		if err := fresh.AddEdge(e.A, e.B, e.Selectivity); err != nil {
			return err
		}
	}
	*g = *fresh
	return nil
}
