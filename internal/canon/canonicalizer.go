package canon

import (
	"encoding/binary"
	"math"
	"sort"

	"blitzsplit/internal/core"
	"blitzsplit/internal/joingraph"
)

// neighbor is one adjacency entry: the neighbour's relation index and the
// connecting predicate's selectivity bits. 16 bytes, kept flat in one slice.
type neighbor struct {
	j   int32
	sel uint64
}

// Canonicalizer runs color-refinement canonicalization with reusable scratch:
// color and priority arrays, the flattened adjacency list, the edge buffer,
// and the fingerprint byte buffer all persist across calls, so canonicalizing
// a stream of same-shaped queries — the serving hot path — performs zero
// steady-state allocations once the scratch has grown to the working size.
// The only allocating path left is the string-keyed refinement rounds, which
// run only when two relations tie on cardinality (Exact stays true without
// them for the common all-distinct case).
//
// A Canonicalizer is not safe for concurrent use; pool instances (the engine
// keeps one sync.Pool per Engine) or use the package-level Canonicalize,
// which allocates a fresh one per call.
type Canonicalizer struct {
	n         int
	hasGraph  bool
	exact     bool
	connected bool

	cardBits   []uint64
	edges      []joingraph.Edge
	nbrOff     []int32 // nbrOff[i]..nbrOff[i+1] brackets relation i's entries in nbrs
	nbrs       []neighbor
	prio       []int
	colors     []int
	keys       []string
	idx        []int
	cursor     []int
	counts     []int
	toCanon    []int
	toOrig     []int
	canonCards []float64
	fp         []byte

	// Sorter adapters stored by value so sort.Sort receives pointers into
	// this struct — interface conversions of pointers never allocate, unlike
	// the sort.Slice closures they replace.
	cardSort idxByCardPrio
	keySort  idxByKey
	edgeSort edgesByAB
}

// Canonicalize computes the canonical relabeling and fingerprint of q into
// the canonicalizer's scratch, replacing any previous result. The accessors
// (Fingerprint, ToOrig, Exact) expose the result without copying; Canonical
// materializes a persistent copy for callers that outlive the scratch.
func (c *Canonicalizer) Canonicalize(q core.Query, _ Options) error {
	if err := q.Validate(); err != nil {
		return err
	}
	n := len(q.Cards)
	c.n = n
	c.hasGraph = q.Graph != nil
	c.grow(n)
	c.cardSort.c = c
	c.keySort.c = c

	// Normalized vertex and edge labels. −0 is folded into +0 so the two
	// (semantically identical) cardinalities serialize identically.
	for i, card := range q.Cards {
		c.cardBits[i] = math.Float64bits(card + 0)
	}
	c.edges = c.edges[:0]
	c.nbrs = c.nbrs[:0]
	if q.Graph != nil {
		c.edges = q.Graph.AppendEdges(c.edges)
		c.buildAdjacency()
	} else {
		for i := 0; i <= n; i++ {
			c.nbrOff[i] = 0
		}
	}

	c.computeConnected()

	for i := range c.prio {
		c.prio[i] = 0
	}
	distinct := c.refine()
	c.exact = distinct == n
	// Individualization: while ties remain, distinguish one member of the
	// smallest tied color class and re-refine. Each round strictly increases
	// the number of classes, so this terminates within n rounds. If the tied
	// relations are automorphic the choice cannot affect the canonical form;
	// if not, Exact=false flags that relabelings may diverge (a cache miss,
	// never an aliasing).
	for mark := 1; distinct < n; mark++ {
		counts := c.counts[:distinct]
		for i := range counts {
			counts[i] = 0
		}
		for _, col := range c.colors {
			counts[col]++
		}
		tied := -1
		for col, k := range counts {
			if k > 1 {
				tied = col
				break
			}
		}
		for i, col := range c.colors {
			if col == tied {
				c.prio[i] = mark
				break
			}
		}
		distinct = c.refine()
	}

	copy(c.toCanon, c.colors)
	for i, col := range c.toCanon {
		c.toOrig[col] = i
	}
	for i := range q.Cards {
		c.canonCards[c.toCanon[i]] = math.Float64frombits(c.cardBits[i])
	}
	// Relabel the edge list in place (it is a private copy) and restore the
	// A < B normalization and (A, B) order the graph would impose, so the
	// fingerprint can serialize it without building a graph.
	for i := range c.edges {
		a, b := c.toCanon[c.edges[i].A], c.toCanon[c.edges[i].B]
		if a > b {
			a, b = b, a
		}
		c.edges[i].A, c.edges[i].B = a, b
	}
	c.edgeSort.e = c.edges
	sort.Sort(&c.edgeSort)
	c.fp = appendFingerprint(c.fp[:0], c.canonCards, c.edges, c.hasGraph)
	return nil
}

// Fingerprint returns the canonical fingerprint bytes of the last
// Canonicalize call. The slice aliases the canonicalizer's scratch: it is
// valid only until the next call and must not be retained (copy via
// string(fp) to keep it).
func (c *Canonicalizer) Fingerprint() []byte { return c.fp }

// ToOrig returns the canonical→original permutation of the last Canonicalize
// call. Like Fingerprint, the slice aliases scratch and is valid only until
// the next call.
func (c *Canonicalizer) ToOrig() []int { return c.toOrig }

// Cards returns the canonical query's base cardinalities from the last
// Canonicalize call, in canonical order. Like Fingerprint, the slice
// aliases scratch and is valid only until the next call.
func (c *Canonicalizer) Cards() []float64 { return c.canonCards }

// Edges returns the canonical query's join predicates from the last
// Canonicalize call, relabeled to canonical numbering with A < B and sorted
// by (A, B): with Cards, what a cache hit needs to re-derive its plan's
// numbers (core.AnnotatePlan) without building a graph. Empty when the
// query has no join graph. Like Fingerprint, the slice aliases scratch and
// is valid only until the next call.
func (c *Canonicalizer) Edges() []joingraph.Edge { return c.edges }

// Exact reports whether refinement alone separated every relation in the
// last Canonicalize call (see Canonical.Exact for the cache implications).
func (c *Canonicalizer) Exact() bool { return c.exact }

// Connected reports whether the last Canonicalize call's query had a join
// graph connecting all of its relations — the topology bit the engine's
// Auto-enumerator resolution needs. Memoizing it here (a union-find over the
// edge list, run once per canonicalization into pooled scratch) keeps the
// serve path's topology-aware selection allocation-free: cache hits never
// touch the join graph at all. False whenever the query has no graph.
func (c *Canonicalizer) Connected() bool { return c.connected }

// computeConnected runs a union-find with path halving over the edge list,
// using the cursor scratch (free after buildAdjacency) as the parent array.
func (c *Canonicalizer) computeConnected() {
	if !c.hasGraph {
		c.connected = false
		return
	}
	parent := c.cursor
	for i := 0; i < c.n; i++ {
		parent[i] = i
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	comps := c.n
	for _, e := range c.edges {
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			parent[ra] = rb
			comps--
		}
	}
	c.connected = comps == 1
}

// Canonical materializes the last result as a self-contained Canonical that
// shares no state with the canonicalizer — the engine calls this only on a
// cache miss, when the canonical query is about to be optimized and must
// outlive the pooled scratch.
func (c *Canonicalizer) Canonical() *Canonical {
	return &Canonical{
		ToCanon:     append([]int(nil), c.toCanon...),
		ToOrig:      append([]int(nil), c.toOrig...),
		Fingerprint: string(c.fp),
		Exact:       c.exact,
		Connected:   c.connected,
		cards:       append([]float64(nil), c.canonCards...),
		edges:       append([]joingraph.Edge(nil), c.edges...),
		hasGraph:    c.hasGraph,
	}
}

// grow resizes every n-shaped scratch slice, reusing capacity when it
// suffices.
func (c *Canonicalizer) grow(n int) {
	c.cardBits = growScratch(c.cardBits, n)
	c.prio = growScratch(c.prio, n)
	c.colors = growScratch(c.colors, n)
	c.keys = growScratch(c.keys, n)
	c.idx = growScratch(c.idx, n)
	c.cursor = growScratch(c.cursor, n)
	c.counts = growScratch(c.counts, n)
	c.toCanon = growScratch(c.toCanon, n)
	c.toOrig = growScratch(c.toOrig, n)
	c.canonCards = growScratch(c.canonCards, n)
	c.nbrOff = growScratch(c.nbrOff, n+1)
}

func growScratch[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// buildAdjacency flattens the edge list into the offset/entry pair
// nbrOff/nbrs — a two-pass counting sort over endpoints, no per-vertex
// slices.
func (c *Canonicalizer) buildAdjacency() {
	n := c.n
	for i := 0; i <= n; i++ {
		c.nbrOff[i] = 0
	}
	for _, e := range c.edges {
		c.nbrOff[e.A+1]++
		c.nbrOff[e.B+1]++
	}
	for i := 1; i <= n; i++ {
		c.nbrOff[i] += c.nbrOff[i-1]
	}
	total := int(c.nbrOff[n])
	if cap(c.nbrs) >= total {
		c.nbrs = c.nbrs[:total]
	} else {
		c.nbrs = make([]neighbor, total)
	}
	for i := 0; i < n; i++ {
		c.cursor[i] = int(c.nbrOff[i])
	}
	for _, e := range c.edges {
		bits := math.Float64bits(e.Selectivity)
		c.nbrs[c.cursor[e.A]] = neighbor{j: int32(e.B), sel: bits}
		c.cursor[e.A]++
		c.nbrs[c.cursor[e.B]] = neighbor{j: int32(e.A), sel: bits}
		c.cursor[e.B]++
	}
}

// refine runs color refinement over the current labels: initial colors rank
// (cardinality, individualization mark); each round appends the sorted
// multiset of (neighbor color, selectivity) signatures and re-ranks. Every
// key is built from labels and colors only — never from relation indexes —
// so the refinement is invariant under relabeling of the input. It returns
// the number of distinct colors.
func (c *Canonicalizer) refine() int {
	// Initial colors rank (cardinality bits, individualization mark)
	// numerically — no serialization needed. When every cardinality is
	// distinct (the common case) this single sort settles the whole
	// refinement and the string-keyed rounds below never run.
	n := c.n
	for i := range c.idx {
		c.idx[i] = i
	}
	sort.Sort(&c.cardSort)
	d := 0
	for r, i := range c.idx {
		if r > 0 {
			p := c.idx[r-1]
			if c.cardBits[i] != c.cardBits[p] || c.prio[i] != c.prio[p] {
				d++
			}
		}
		c.colors[i] = d
	}
	distinct := d + 1
	for distinct < n {
		for i := range c.keys {
			b := binary.AppendUvarint(nil, uint64(c.colors[i]))
			nbrs := c.nbrs[c.nbrOff[i]:c.nbrOff[i+1]]
			sig := make([]string, 0, len(nbrs))
			for _, nb := range nbrs {
				s := binary.AppendUvarint(nil, uint64(c.colors[nb.j]))
				s = binary.LittleEndian.AppendUint64(s, nb.sel)
				sig = append(sig, string(s))
			}
			sort.Strings(sig)
			for _, s := range sig {
				b = append(b, s...)
			}
			c.keys[i] = string(b)
		}
		d := c.recolor()
		if d == distinct {
			break // stable partition; no further splitting possible
		}
		distinct = d
	}
	return distinct
}

// recolor assigns each relation the rank of its key among the sorted
// distinct keys and returns the number of distinct keys.
func (c *Canonicalizer) recolor() int {
	for i := range c.idx {
		c.idx[i] = i
	}
	sort.Sort(&c.keySort)
	d := 0
	for r, i := range c.idx {
		if r > 0 && c.keys[i] != c.keys[c.idx[r-1]] {
			d++
		}
		c.colors[i] = d
	}
	return d + 1
}

// idxByCardPrio sorts c.idx by (cardinality bits, individualization mark).
type idxByCardPrio struct{ c *Canonicalizer }

func (s *idxByCardPrio) Len() int { return len(s.c.idx) }
func (s *idxByCardPrio) Swap(a, b int) {
	s.c.idx[a], s.c.idx[b] = s.c.idx[b], s.c.idx[a]
}
func (s *idxByCardPrio) Less(a, b int) bool {
	c := s.c
	ia, ib := c.idx[a], c.idx[b]
	if c.cardBits[ia] != c.cardBits[ib] {
		return c.cardBits[ia] < c.cardBits[ib]
	}
	return c.prio[ia] < c.prio[ib]
}

// idxByKey sorts c.idx by refinement key.
type idxByKey struct{ c *Canonicalizer }

func (s *idxByKey) Len() int { return len(s.c.idx) }
func (s *idxByKey) Swap(a, b int) {
	s.c.idx[a], s.c.idx[b] = s.c.idx[b], s.c.idx[a]
}
func (s *idxByKey) Less(a, b int) bool {
	return s.c.keys[s.c.idx[a]] < s.c.keys[s.c.idx[b]]
}

// edgesByAB sorts an edge list by (A, B) — the order Graph.Edges would
// return and the fingerprint serializes.
type edgesByAB struct{ e []joingraph.Edge }

func (s *edgesByAB) Len() int      { return len(s.e) }
func (s *edgesByAB) Swap(a, b int) { s.e[a], s.e[b] = s.e[b], s.e[a] }
func (s *edgesByAB) Less(a, b int) bool {
	if s.e[a].A != s.e[b].A {
		return s.e[a].A < s.e[b].A
	}
	return s.e[a].B < s.e[b].B
}
