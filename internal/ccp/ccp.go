// Package ccp implements DPccp-style connected-subgraph / complement-pair
// enumeration over join graphs (Moerkotte & Neumann, "Analysis of Two
// Existing and One New Dynamic Programming Algorithm", VLDB 2006), the
// machinery behind the optimizer's second exact fill strategy
// (core.EnumeratorCCP). The paper's 3^n split scan enumerates every
// bipartition of every relation set — including Cartesian splits a connected
// join graph never needs. On a connected graph the Cartesian-product-free
// plan space is exactly the set of (csg, cmp) pairs: bipartitions of a
// connected set into two connected halves. This package enumerates those
// pairs by neighborhood expansion:
//
//   - EnumerateCsg emits every connected subset of the graph exactly once,
//     growing each set through its neighborhood frontier (never by blind
//     subset iteration), in O(1) amortized work per emitted set.
//   - MarkConnectedHalt materializes the emission as a 2^n-bit connectivity
//     bitmap. The dense fill in internal/core builds its bitmap with it and
//     restricts the §4.2 fill to the marked subsets and their connected
//     complement pairs; MarkConnected is the unbudgeted form that
//     check.EnumeratorAgree compares against BFS.
//   - CountCsgCmpPairs counts the csg–cmp pairs — the CCP analog of the
//     3^n/2 unordered-bipartition count, and the quantity the speedup curve
//     in BENCH_enumerators.json is made of.
//
// The package deliberately does not import internal/core: core imports ccp
// for the bitmap.
package ccp

import (
	"math/bits"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/joingraph"
)

// Adjacency is the neighbor-set view of an undirected graph over n vertices:
// a[i] is the bitset of neighbors of vertex i. It is the minimal shape the
// csg enumeration needs, so both joingraph.Graph and hybrid.IDP's contracted
// unit graphs can feed the same machinery.
type Adjacency []bitset.Set

// GraphAdjacency extracts the adjacency view of a join graph.
func GraphAdjacency(g *joingraph.Graph) Adjacency {
	a := make(Adjacency, g.N())
	for i := range a {
		a[i] = g.Neighbors(i)
	}
	return a
}

// NeighborsOfSet returns the one-hop frontier of s: the union of the
// members' neighbor sets, minus s itself.
func (a Adjacency) NeighborsOfSet(s bitset.Set) bitset.Set {
	var out bitset.Set
	for t := s; t != 0; t &= t - 1 {
		out |= a[bits.TrailingZeros64(uint64(t))]
	}
	return out &^ s
}

// Connected reports whether s induces a connected subgraph, by breadth-first
// frontier expansion. The empty set and singletons are connected. This is
// the slow reference the enumeration-based bitmap is differentially tested
// against (check.EnumeratorAgree compares it bit for bit).
func (a Adjacency) Connected(s bitset.Set) bool {
	if s == 0 || s&(s-1) == 0 {
		return true
	}
	reach := s & -s
	for {
		grow := a.NeighborsOfSet(reach) & s
		if grow == 0 {
			return reach == s
		}
		reach |= grow
	}
}

// EnumerateCsg emits every connected subset of the graph exactly once, in
// the Moerkotte–Neumann order: for each start vertex i from n−1 down to 0,
// the singleton {i} and then every connected set whose minimum vertex is i,
// grown by expanding through the neighborhood frontier with vertices < i
// prohibited. Emission stops early — returning false — when visit returns
// false; a complete enumeration returns true.
func (a Adjacency) EnumerateCsg(visit func(bitset.Set) bool) bool {
	n := len(a)
	for i := n - 1; i >= 0; i-- {
		v := bitset.Set(1) << uint(i)
		if !visit(v) {
			return false
		}
		// Prohibit the start vertex's predecessors (and itself): sets whose
		// minimum is a smaller vertex are emitted from that vertex's turn,
		// so each connected set appears exactly once.
		if !a.enumerateCsgRec(v, v|(v-1), visit) {
			return false
		}
	}
	return true
}

// enumerateCsgRec grows the connected set s through its frontier. x is the
// prohibited set: vertices already expanded through (or excluded by the
// start-vertex order), which guarantees each set is emitted exactly once.
func (a Adjacency) enumerateCsgRec(s, x bitset.Set, visit func(bitset.Set) bool) bool {
	frontier := a.NeighborsOfSet(s) &^ x
	if frontier == 0 {
		return true
	}
	// Every nonempty frontier subset yields a new connected set (ascending
	// submask enumeration: (sub − f) & f steps through all submasks of f).
	for sub := (0 - frontier) & frontier; sub != 0; sub = (sub - frontier) & frontier {
		if !visit(s | sub) {
			return false
		}
	}
	for sub := (0 - frontier) & frontier; sub != 0; sub = (sub - frontier) & frontier {
		if !a.enumerateCsgRec(s|sub, x|frontier, visit) {
			return false
		}
	}
	return true
}

// EnumerateCsgCmp emits every unordered csg–cmp pair of the graph exactly
// once: s1 and s2 are disjoint connected sets joined by at least one edge,
// with min(s1) = min(s1|s2) — s1 is the half holding the union's minimum
// vertex, mirroring the dense split loop's lhs-contains-lowest-bit
// canonicalization. Pairs stream in the Moerkotte–Neumann order, which is
// valid for dynamic programming: when (s1, s2) is emitted, every pair whose
// union is s1 or s2 has already been emitted, so a DP that folds each pair
// into its union's entry reads only finished entries. Total work is O(1)
// amortized per pair. Emission stops early, returning false, when visit
// returns false.
func (a Adjacency) EnumerateCsgCmp(visit func(s1, s2 bitset.Set) bool) bool {
	return a.EnumerateCsg(func(s1 bitset.Set) bool {
		return a.enumerateCmps(s1, visit)
	})
}

// enumerateCmps emits every complement partner of the connected set s1:
// each connected s2 in the complement, adjacent to s1, with all vertices
// above min(s1). Partners are seeded from the neighborhood of s1 in
// descending vertex order, each seed growing through its own frontier with
// smaller seeds prohibited — the cmp-side mirror of EnumerateCsg's
// start-vertex loop, so each partner is produced exactly once.
func (a Adjacency) enumerateCmps(s1 bitset.Set, visit func(s1, s2 bitset.Set) bool) bool {
	wmin := s1 & -s1
	x := s1 | (wmin - 1) | wmin // s1 plus every vertex ≤ min(s1)
	seeds := a.NeighborsOfSet(s1) &^ x
	for t := seeds; t != 0; {
		v := bitset.Set(1) << uint(bits.Len64(uint64(t))-1) // descending
		t ^= v
		if !visit(s1, v) {
			return false
		}
		// Grow s2 beyond the seed: prohibited are x and the seeds ≤ v, so a
		// partner with minimum seed v is emitted only from v's turn.
		below := v | (v - 1)
		if !a.enumerateCsgRec(v, x|(seeds&below), func(s2 bitset.Set) bool {
			return visit(s1, s2)
		}) {
			return false
		}
	}
	return true
}

// MarkConnected appends nothing to dst's contents: it resizes dst to
// ⌈2^n/64⌉ words, zeroes it, sets the bit of every connected subset
// (singletons included; the empty set's bit stays 0), and returns the slice
// together with the number of connected subsets marked. Requires
// len(a) ≤ bitset.MaxRelations, since the bitmap is dense in 2^n.
func MarkConnected(dst []uint64, a Adjacency) ([]uint64, uint64) {
	return MarkConnectedHalt(dst, a, nil)
}

// MarkConnectedHalt is MarkConnected under cooperative cancellation: halt is
// polled every 1024 emissions (when non-nil) and a true return abandons the
// marking, returning the partial bitmap and count. The core fill treats an
// abandoned marking as a budget stop.
func MarkConnectedHalt(dst []uint64, a Adjacency, halt func() bool) ([]uint64, uint64) {
	words := ((1 << uint(len(a))) + 63) / 64
	if cap(dst) < words {
		dst = make([]uint64, words)
	} else {
		dst = dst[:words]
		for i := range dst {
			dst[i] = 0
		}
	}
	var count uint64
	a.EnumerateCsg(func(s bitset.Set) bool {
		dst[s>>6] |= 1 << (uint(s) & 63)
		count++
		if halt != nil && count&1023 == 0 {
			return !halt()
		}
		return true
	})
	return dst, count
}

// CountCsgCmpPairs returns the number of unordered csg–cmp pairs: connected
// sets S with connected complement-part partners inside each union. Each
// pair is one unordered bipartition of a connected set into two connected
// halves, so the guarded split loop in internal/core performs exactly twice
// this many cost evaluations per pass (both orientations of each pair) —
// check.EnumeratorAgree pins the optimizer's LoopIters counter to it.
func (a Adjacency) CountCsgCmpPairs() uint64 {
	var pairs uint64
	a.EnumerateCsgCmp(func(_, _ bitset.Set) bool {
		pairs++
		return true
	})
	return pairs
}
