// Package canon canonicalizes join-order queries into deterministic
// fingerprints, the foundation of the facade's plan cache. Two queries that
// differ only in how their relations are numbered traverse isomorphic DP
// lattices and have isomorphic optimal plans (the permutation-invariance
// property internal/check proves as a metamorphic invariant), so a cache
// keyed by a labeling-independent fingerprint can serve one query's plan to
// every relabeling of it.
//
// Canonicalize relabels the query by color refinement (Weisfeiler–Leman style)
// over the join graph with cardinalities and selectivities as vertex/edge
// labels, individualizing ties until every relation has a distinct canonical
// position; relations end up sorted by (cardinality, adjacency signature).
// The fingerprint is the full serialization of the relabeled query — not a
// hash — so two non-isomorphic queries can never share a fingerprint: equal
// fingerprints mean equal canonical queries, and each canonical query is a
// relabeling of its input. An imperfect canonicalization (two isomorphic
// queries mapping to different fingerprints, possible only when refinement
// stalls on a non-automorphic tie) therefore costs a cache miss, never a
// wrong plan; Canonical.Exact reports when refinement alone separated every
// relation, which provably makes the fingerprint permutation-invariant.
package canon

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// Options configures canonicalization. It has no fields: selectivities are
// canonicalized exactly, so a plan cached under a fingerprint is
// bit-identical to a cold optimization of every query with that fingerprint.
// Canonicalize keeps the parameter because the benchmark module, which is
// built from its own go.mod, passes Options{}.
type Options struct{}

// Canonical is the result of canonicalizing a query.
type Canonical struct {
	// ToCanon maps original relation indexes to canonical ones:
	// ToCanon[orig] = canon.
	ToCanon []int
	// ToOrig is the inverse permutation: ToOrig[canon] = orig. Cached plans —
	// which are in canonical numbering — are rewritten back to the caller's
	// numbering with RelabelPlan(plan, ToOrig).
	ToOrig []int
	// Fingerprint is the byte-exact serialization of Query. Equal
	// fingerprints imply equal canonical queries, so a cache keyed by it can
	// never serve a plan for a non-isomorphic query.
	Fingerprint string
	// Exact reports that color refinement alone assigned every relation a
	// distinct canonical position. Refinement keys are labeling-independent,
	// so when Exact is true the fingerprint is provably identical across all
	// relabelings of the query. When false, ties were broken by
	// individualization; the fingerprint is still deterministic and still
	// never aliases non-isomorphic queries, but two relabelings of the same
	// query may miss each other in the cache if the tied relations are not
	// automorphic (equal-label symmetric topologies — chains, stars, cycles,
	// cliques — tie only on automorphism orbits, where any choice is safe).
	Exact bool
	// Connected reports that the query has a join graph connecting all of
	// its relations (connectivity is labeling-invariant, so it is a property
	// of the fingerprint). The engine's topology-aware enumerator selection
	// reads this instead of re-walking the join graph per optimize call.
	Connected bool

	// cards and edges are the canonical query's components, retained so
	// Query can materialize it on demand. A cache hit needs only the
	// fingerprint and ToOrig; deferring graph construction keeps hits cheap.
	cards    []float64
	edges    []joingraph.Edge
	hasGraph bool
}

// Query materializes the canonically relabeled copy of the input. It shares
// no mutable state with the input. The engine calls this only on a cache
// miss, when the canonical query is about to be optimized; hits never pay for
// graph construction.
func (c *Canonical) Query() core.Query {
	cq := core.Query{Cards: c.cards}
	if c.hasGraph {
		g := joingraph.New(len(c.cards))
		for _, e := range c.edges {
			g.MustAddEdge(e.A, e.B, e.Selectivity)
		}
		cq.Graph = g
	}
	return cq
}

// Canonicalize computes the canonical relabeling and fingerprint of q with a
// fresh Canonicalizer. Callers canonicalizing streams of queries (the
// engine's serve path) should pool a Canonicalizer instead: its scratch makes
// repeat canonicalizations allocation-free.
func Canonicalize(q core.Query, opts Options) (*Canonical, error) {
	var c Canonicalizer
	if err := c.Canonicalize(q, opts); err != nil {
		return nil, err
	}
	return c.Canonical(), nil
}

// appendFingerprint serializes the canonical query byte-exactly into dst: a
// version tag, the relation count, every cardinality's IEEE bits in canonical
// order, and the sorted (a, b, selectivity-bits) edge list. Uvarints are
// self-delimiting and the float fields are fixed-width, so the encoding is
// injective.
func appendFingerprint(b []byte, cards []float64, edges []joingraph.Edge, hasGraph bool) []byte {
	b = append(b, "bzfp1\x00"...)
	b = binary.AppendUvarint(b, uint64(len(cards)))
	for _, c := range cards {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	if !hasGraph {
		b = append(b, 'P') // pure Cartesian product
		return b
	}
	b = append(b, 'G')
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.A))
		b = binary.AppendUvarint(b, uint64(e.B))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Selectivity))
	}
	return b
}

// FoldSelectivities folds the selectivities of several predicates between the
// same relation pair into one. Multiple predicates on a pair are a
// conjunction, so the factors multiply — in ascending order, making the
// result independent of the order the predicates were declared in. The
// product of values in (0, 1] stays in (0, 1] mathematically; an underflow to
// zero is clamped to the smallest positive double so the folded edge remains
// a valid selectivity.
func FoldSelectivities(sels []float64) float64 {
	if len(sels) == 1 {
		return sels[0]
	}
	sorted := append([]float64(nil), sels...)
	sort.Float64s(sorted)
	p := 1.0
	for _, s := range sorted {
		p *= s
	}
	if p <= 0 {
		return math.SmallestNonzeroFloat64
	}
	return p
}

// RelabelPlan returns a deep copy of p with every relation index i replaced
// by m[i] — both the leaf Rel fields and every node's relation bitset.
// Cardinalities, costs and algorithm annotations are copied bitwise: a
// relabeling permutes leaves, it does not change any estimate. The input is
// never mutated, so a shared plan can be relabeled concurrently.
//
// All copied nodes come from a single slab allocation sized by one counting
// pass: relabeling a plan costs one allocation instead of one per node. The
// slab is freshly allocated each call — the plan escapes to the caller as
// part of a Result, so the buffer cannot be pooled.
func RelabelPlan(p *plan.Node, m []int) *plan.Node {
	if p == nil {
		return nil
	}
	slab := make([]plan.Node, 0, countNodes(p))
	cp := copyInto(&slab, p)
	RelabelPlanInPlace(cp, m)
	return cp
}

// RelabelPlanInPlace is RelabelPlan on a tree the caller owns: it rewrites
// p's relation indexes through m without copying anything.
func RelabelPlanInPlace(p *plan.Node, m []int) {
	var s bitset.Set
	p.Set.ForEach(func(i int) { s = s.Add(m[i]) })
	p.Set = s
	if p.IsLeaf() {
		p.Rel = m[p.Rel]
		return
	}
	RelabelPlanInPlace(p.Left, m)
	RelabelPlanInPlace(p.Right, m)
}

func countNodes(p *plan.Node) int {
	if p == nil {
		return 0
	}
	return 1 + countNodes(p.Left) + countNodes(p.Right)
}

// copyInto appends a copy of the tree p to the slab, whose capacity must
// hold every node so the copies never move.
func copyInto(slab *[]plan.Node, p *plan.Node) *plan.Node {
	*slab = append(*slab, *p)
	cp := &(*slab)[len(*slab)-1]
	if !p.IsLeaf() {
		cp.Left = copyInto(slab, p.Left)
		cp.Right = copyInto(slab, p.Right)
	}
	return cp
}

// mustValidPerm is a debug guard shared by tests.
func mustValidPerm(m []int, n int) error {
	if len(m) != n {
		return fmt.Errorf("canon: permutation length %d, want %d", len(m), n)
	}
	seen := make([]bool, n)
	for _, v := range m {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("canon: %v is not a permutation of 0..%d", m, n-1)
		}
		seen[v] = true
	}
	return nil
}
