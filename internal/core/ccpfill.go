// The connected-complement-pair (CCP) fill strategy: the second exact fill
// behind Options.Enumerator. The paper's §4.2 scan enumerates every
// bipartition of every subset — 3^n split iterations — including Cartesian
// splits that a connected join graph never needs. The CCP fill is the blitz
// fill restricted to connected subsets: the same schedules and the same
// findBestSplit, visiting only the subsets marked in a 2^n-bit connectivity
// bitmap (internal/ccp's neighborhood-based csg expansion builds it) and,
// inside each, only splits whose two halves are both connected (O(1) probes
// into the same bitmap). On a chain the 3^n term collapses to O(n^3); on a
// clique every subset is connected and the fill degenerates to the blitz
// scan plus two bitmap probes per pair — which is why EnumeratorAuto exists
// rather than an unconditional switch.
//
// The guarded pair loops in connectedSplits are findBestSplit's pair loops
// with only the connectivity guards inserted: same κ′/κ″ evaluation order,
// same strict prunes, same smallest-LHS tie rule. Because the CCP split set
// is a subset of the blitz split set evaluated with identical float
// operations, the CCP fill's cost for every set is ≥ the blitz fill's, with
// bitwise equality whenever the blitz optimum is Cartesian-free —
// check.EnumeratorAgree enforces exactly that.

package core

import (
	"errors"
	"fmt"
	"math/bits"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/ccp"
)

// Enumerator selects the exact fill strategy for Optimize.
type Enumerator int

const (
	// EnumeratorBlitz is the paper's 3^n split scan over every bipartition,
	// Cartesian products included — the default, and the only complete
	// strategy for disconnected graphs, predicate-free queries, and queries
	// whose optimum contains a Cartesian product.
	EnumeratorBlitz Enumerator = iota
	// EnumeratorCCP restricts the scan to connected-subgraph/complement
	// pairs: exact over the Cartesian-product-free bushy space. Requires a
	// connected join graph and the default bushy scan (no LeftDeep, no
	// ablation flags); Optimize rejects it otherwise with
	// ErrEnumeratorUnsupported.
	EnumeratorCCP
	// EnumeratorAuto picks per query: CCP when the query is CCP-eligible,
	// the blitz scan otherwise. Note the two strategies search different
	// spaces — on a connected graph whose optimum uses a Cartesian product
	// (cheap small relations under a selective star hub, §4.3's motivating
	// shape), Auto returns the best product-free plan, which can cost more
	// than the blitz optimum. Auto is topology-aware speed at the price of
	// that caveat; Blitz remains the paper-faithful default.
	EnumeratorAuto
)

// String returns the flag-style name of the enumerator.
func (e Enumerator) String() string {
	switch e {
	case EnumeratorBlitz:
		return "blitz"
	case EnumeratorCCP:
		return "ccp"
	case EnumeratorAuto:
		return "auto"
	}
	return fmt.Sprintf("Enumerator(%d)", int(e))
}

// ParseEnumerator parses a -enumerator flag value.
func ParseEnumerator(name string) (Enumerator, error) {
	switch name {
	case "blitz", "":
		return EnumeratorBlitz, nil
	case "ccp":
		return EnumeratorCCP, nil
	case "auto":
		return EnumeratorAuto, nil
	}
	return 0, fmt.Errorf("core: unknown enumerator %q (want auto, blitz, or ccp)", name)
}

// ErrEnumeratorUnsupported is returned when EnumeratorCCP is requested for a
// query outside its space: no join graph, a disconnected graph, the
// left-deep restriction, or an ablation flag.
var ErrEnumeratorUnsupported = errors.New(
	"core: EnumeratorCCP requires a connected join graph and the default bushy scan")

// ccpEligible reports whether the CCP fill is exact for this (query,
// options) pair: a connected join graph under the default bushy scan. The
// ablation flags stay with the blitz scan they ablate.
func (o Options) ccpEligible(q Query) bool {
	return q.Graph != nil && !o.LeftDeep &&
		!o.DisableNestedIfs && !o.DescendingSubsets &&
		q.Graph.Connected(bitset.Full(len(q.Cards)))
}

// EnumeratorFor maps Auto to the concrete strategy Optimize would run for q
// and validates an explicit CCP request. The connectivity probe is a bitset
// BFS — allocation-free, O(n·diameter) — recomputed per call; the serving
// Engine avoids even that on cache hits by memoizing connectivity in the
// canonical fingerprint and resolving Auto before the cache lookup.
func (o Options) EnumeratorFor(q Query) (Enumerator, error) {
	return o.ResolveEnumerator(o.ccpEligible(q))
}

// ResolveEnumerator maps Options.Enumerator to a concrete strategy given an
// externally established CCP eligibility verdict: Blitz stays Blitz, an
// explicit CCP request is validated against ccpEligible, and Auto picks CCP
// exactly when eligible. The facade Engine calls this with connectivity
// memoized in the canonical fingerprint so resolution on the serve path
// never touches the join graph; Optimize itself derives eligibility from
// the query. Both paths resolve identically by construction, which keeps
// cache keys (which carry the resolved strategy) consistent with cold runs.
func (o Options) ResolveEnumerator(ccpEligible bool) (Enumerator, error) {
	switch o.Enumerator {
	case EnumeratorBlitz:
		return EnumeratorBlitz, nil
	case EnumeratorCCP:
		if !ccpEligible {
			return 0, ErrEnumeratorUnsupported
		}
		return EnumeratorCCP, nil
	case EnumeratorAuto:
		if ccpEligible {
			return EnumeratorCCP, nil
		}
		return EnumeratorBlitz, nil
	}
	return 0, fmt.Errorf("core: invalid Options.Enumerator %d", int(o.Enumerator))
}

// prepareCCP builds the connectivity bitmap for the current query, once per
// optimize call (threshold passes reuse it; Reset invalidates). It rides on
// the table so arena reuse amortizes its allocation exactly like the DP
// columns; RetainedBytes meters it. The marking is budget-checked every 1024
// emissions.
func (t *Table) prepareCCP(q Query, bg *budget) error {
	if t.ccpN == t.n {
		return nil
	}
	var marked uint64
	t.conn, marked = ccp.MarkConnectedHalt(t.conn, ccp.GraphAdjacency(q.Graph), bg.halted)
	if bg.halted() {
		bg.add(marked)
		return bg.exceeded(PhaseFill)
	}
	t.ccpN = t.n
	return nil
}

// sizeLayerBuffer gives the layer buffer room for the largest rank layer of
// connected sets, counted from the bitmap, so the layered pass never grows
// it by doubling: its capacity stays within the C(n, ⌊n/2⌋) sets that
// CCPFootprint admits.
func (t *Table) sizeLayerBuffer() {
	var perRank [bitset.MaxRelations + 1]int
	for w, word := range t.conn {
		base := bitset.Set(w) << 6
		for ; word != 0; word &= word - 1 {
			perRank[(base|bitset.Set(bits.TrailingZeros64(word))).Count()]++
		}
	}
	largest := 0
	for _, c := range perRank[2:] {
		largest = max(largest, c)
	}
	if cap(t.layer) < largest {
		t.layer = make([]bitset.Set, 0, largest)
	}
}

// connectedLayer gathers the connected sets of popcount k from the bitmap,
// word by word in numeric order, into the table's layer buffer.
func (t *Table) connectedLayer(k int) []bitset.Set {
	layer := t.layer[:0]
	for w, word := range t.conn {
		base := bitset.Set(w) << 6
		for ; word != 0; word &= word - 1 {
			if s := base | bitset.Set(bits.TrailingZeros64(word)); s.Count() == k {
				layer = append(layer, s)
			}
		}
	}
	t.layer = layer
	return layer
}

// connectedSplits is findBestSplit's pair scan for EnumeratorCCP: the caller
// guarantees s is connected, and two bitmap probes gate each candidate pair
// before any cost load. best is the incumbent bound (threshold − κ′); the
// winner comes back with the loop's counts. The two loops are findBestSplit's
// κ″ ≡ 0 and nested-if pair loops, guarded — kept in their own method so the
// blitz loops carry no guard, and the guarded ones stay as tight as the
// unguarded.
//
// LoopIters counts the ordered csg–cmp splits actually enumerated (2 per
// unordered pair) rather than the blitz scan's analytic 2^|s|−2 — the
// quantity the speedup curve is made of (ccp.CountCsgCmpPairs cross-checks
// it).
func (t *Table) connectedSplits(s bitset.Set, outCard, best float64, conn []uint64) (float64, bitset.Set, uint64, uint64, uint64) {
	bestLHS := bitset.Empty
	slots := t.slot
	mask := bitset.Set(len(slots)) - 1
	_ = slots[s]
	low := s & -s
	rest := s ^ low
	var iters, kppEvals, condHits uint64

	if t.naive {
		// Guarded form of findBestSplit's κ″ ≡ 0 pair loop: unordered pairs,
		// ties to the numerically smaller side.
		for sub := bitset.Set(0); ; sub = (sub - rest) & rest {
			lhs := sub | low
			if lhs == s {
				break
			}
			if conn[lhs>>6]&(1<<(uint(lhs)&63)) == 0 {
				continue
			}
			rhs := s ^ lhs
			if conn[rhs>>6]&(1<<(uint(rhs)&63)) == 0 {
				continue
			}
			iters += 2
			lc := slots[lhs&mask].Cost
			rc := slots[rhs&mask].Cost
			if o := lc + rc; o <= best {
				win := lhs
				if rhs < lhs {
					win = rhs
				}
				if o < best {
					best = o
					bestLHS = win
					condHits++
				} else if win < bestLHS {
					bestLHS = win
				}
			}
		}
		return best, bestLHS, iters, kppEvals, condHits
	}
	// Guarded form of findBestSplit's default nested-if pair loop.
	for sub := bitset.Set(0); ; sub = (sub - rest) & rest {
		lhs := sub | low
		if lhs == s {
			break
		}
		if conn[lhs>>6]&(1<<(uint(lhs)&63)) == 0 {
			continue
		}
		rhs := s ^ lhs
		if conn[rhs>>6]&(1<<(uint(rhs)&63)) == 0 {
			continue
		}
		iters += 2
		lc := slots[lhs&mask].Cost
		if lc > best {
			continue
		}
		rc := slots[rhs&mask].Cost
		if rc > best {
			continue
		}
		oprnd := lc + rc
		if oprnd > best {
			continue
		}
		kppEvals++
		if d := oprnd + t.splitDep(outCard, lhs, rhs); d < best || (d == best && lhs < bestLHS) {
			if d < best {
				condHits++
			}
			best = d
			bestLHS = lhs
		}
		if oprnd > best {
			continue
		}
		kppEvals++
		if d := oprnd + t.splitDep(outCard, rhs, lhs); d < best || (d == best && rhs < bestLHS) {
			if d < best {
				condHits++
			}
			best = d
			bestLHS = rhs
		}
	}
	return best, bestLHS, iters, kppEvals, condHits
}
