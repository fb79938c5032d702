package blitzsplit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/joingraph"
)

// Query is a join-order optimization problem under construction. The zero
// value is an empty query, like NewQuery's result.
type Query struct {
	// names and cards are the relations in insertion order: a relation's
	// position is its index in the optimizer's bitsets. Both only grow, so a
	// built query may share their prefixes.
	names []string
	cards []float64
	edges []edgeSpec
	// memo caches build's product so repeated Optimize calls on an unchanged
	// query — the serving hot path — skip graph construction. Mutators clear
	// it; the atomic makes concurrent Optimize calls on one query race-free
	// (concurrent rebuilds compute equal values, and whichever Store wins is
	// correct).
	memo atomic.Pointer[queryMemo]
}

// queryMemo is one immutable build product. The core.Query inside is shared
// by every Optimize call until the query is mutated; optimization only reads
// it.
type queryMemo struct {
	cq  core.Query
	err error
}

// edgeSpec is one declared predicate, its endpoints resolved to relation
// indexes when Join was called.
type edgeSpec struct {
	a, b        int
	selectivity float64
}

// NewQuery returns an empty query.
func NewQuery() *Query {
	return &Query{}
}

// AddRelation adds a base relation with the given name and (estimated)
// cardinality. Names must be nonempty and unique, and cardinalities finite
// and nonnegative. Relations are ordered by insertion; at most 30 are
// supported.
func (q *Query) AddRelation(name string, cardinality float64) error {
	switch {
	case name == "":
		return errors.New("blitzsplit: relation name must be nonempty")
	case slices.Contains(q.names, name):
		return fmt.Errorf("blitzsplit: duplicate relation %q", name)
	case cardinality < 0 || math.IsNaN(cardinality) || math.IsInf(cardinality, 0):
		return fmt.Errorf("blitzsplit: relation %q has invalid cardinality %v", name, cardinality)
	case len(q.names) >= bitset.MaxRelations:
		return fmt.Errorf("blitzsplit: at most %d relations are supported", bitset.MaxRelations)
	}
	q.names = append(q.names, name)
	q.cards = append(q.cards, cardinality)
	q.memo.Store(nil)
	return nil
}

// MustAddRelation is AddRelation that panics on error.
func (q *Query) MustAddRelation(name string, cardinality float64) {
	if err := q.AddRelation(name, cardinality); err != nil {
		panic(err)
	}
}

// Join declares an equi-join predicate between two previously added
// relations with the given selectivity in (0, 1]. Declaring several
// predicates between the same pair is allowed — a conjunction — and their
// selectivities are folded into a single multiplicative factor at build time,
// independently of declaration order.
func (q *Query) Join(a, b string, selectivity float64) error {
	ai := slices.Index(q.names, a)
	if ai < 0 {
		return fmt.Errorf("blitzsplit: unknown relation %q", a)
	}
	bi := slices.Index(q.names, b)
	if bi < 0 {
		return fmt.Errorf("blitzsplit: unknown relation %q", b)
	}
	q.edges = append(q.edges, edgeSpec{a: ai, b: bi, selectivity: selectivity})
	q.memo.Store(nil)
	return nil
}

// MustJoin is Join that panics on error.
func (q *Query) MustJoin(a, b string, selectivity float64) {
	if err := q.Join(a, b, selectivity); err != nil {
		panic(err)
	}
}

// NumRelations returns the number of relations added so far.
func (q *Query) NumRelations() int { return len(q.names) }

// RelationNames returns the relation names in insertion order — the index
// order used in Plan leaves.
func (q *Query) RelationNames() []string { return append([]string{}, q.names...) }

// build materializes the internal query representation, memoized until the
// next mutation. Repeated predicates between one relation pair are a
// conjunction: their selectivities fold into one edge factor
// deterministically (canon.FoldSelectivities multiplies in sorted order), so
// the graph — which rejects duplicate edges outright — sees each pair once
// and declaration order cannot change the result.
func (q *Query) build() (core.Query, error) {
	if m := q.memo.Load(); m != nil {
		return m.cq, m.err
	}
	cq, err := q.buildUncached()
	q.memo.Store(&queryMemo{cq: cq, err: err})
	return cq, err
}

// resultNames returns the relation names for result assembly without a
// copy. Callers must not mutate the returned slice; the public RelationNames
// returns a copy. The full slice expression caps it, so an append by a
// reader reallocates instead of writing where a later AddRelation will.
func (q *Query) resultNames() []string {
	n := len(q.names)
	return q.names[:n:n]
}

func (q *Query) buildUncached() (core.Query, error) {
	n := len(q.cards)
	if n == 0 {
		return core.Query{}, errors.New("blitzsplit: query has no relations")
	}
	var g *joingraph.Graph
	if len(q.edges) > 0 {
		// First pass: check every selectivity, and mark each relation pair
		// (low, high) as declared once, then as repeated.
		var once, again [bitset.MaxRelations]bitset.Set
		for _, e := range q.edges {
			if !(e.selectivity > 0 && e.selectivity <= 1) {
				return core.Query{}, fmt.Errorf(
					"blitzsplit: join %s⋈%s selectivity %v is outside (0, 1]", q.names[e.a], q.names[e.b], e.selectivity)
			}
			a, b := e.pair()
			if once[a].Has(b) {
				again[a] = again[a].Add(b)
			}
			once[a] = once[a].Add(b)
		}
		// Second pass: add each pair where it is first declared; only a
		// repeated pair scans the rest of the list for its selectivities.
		g = joingraph.New(n)
		var added [bitset.MaxRelations]bitset.Set
		for i, e := range q.edges {
			a, b := e.pair()
			if added[a].Has(b) {
				continue
			}
			added[a] = added[a].Add(b)
			sel := e.selectivity
			if again[a].Has(b) {
				var sels []float64
				for _, f := range q.edges[i:] {
					if fa, fb := f.pair(); fa == a && fb == b {
						sels = append(sels, f.selectivity)
					}
				}
				sel = canon.FoldSelectivities(sels)
			}
			if err := g.AddEdge(a, b, sel); err != nil {
				return core.Query{}, err
			}
		}
	}
	return core.Query{Cards: q.cards[:n:n], Graph: g}, nil
}

// pair returns the predicate's endpoints, lower index first.
func (e edgeSpec) pair() (int, int) {
	if e.b < e.a {
		return e.b, e.a
	}
	return e.a, e.b
}

// Synthesize materializes an in-memory database instance matching the
// query's cardinalities and selectivities (deterministically from seed), so
// optimized plans can be executed and estimates compared against actual
// result sizes.
func (q *Query) Synthesize(seed int64) (*Database, error) {
	cq, err := q.build()
	if err != nil {
		return nil, err
	}
	return engine.Synthesize(cq.Cards, cq.Graph, seed)
}
