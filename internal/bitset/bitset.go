// Package bitset implements sets of relation names represented as machine-word
// bit-vectors, together with the subset-enumeration primitives that make the
// blitzsplit join-order optimizer fast (Vance & Maier, SIGMOD 1996, §4).
//
// A relation name is a small integer index i (0 ≤ i < MaxRelations); a set of
// relation names is a Set whose bit i is 1 iff relation i is a member. A Set's
// integer value doubles as its index into the optimizer's dynamic-programming
// table, so the numeric ordering of Sets (subsets have smaller values than no
// superset) is load-bearing: processing table entries in numeric order
// guarantees every proper subset of S is processed before S.
package bitset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxRelations is the largest number of relations a Set can hold. The
// optimizer's table has 2^n entries, so memory — not this constant — is the
// practical limit (n = 30 would need 16 GiB of table at 16 B/entry).
const MaxRelations = 30

// Set is a set of relation indexes packed into a word. The zero value is the
// empty set.
type Set uint64

// Empty is the empty set.
const Empty Set = 0

// Single returns the singleton set {i}.
func Single(i int) Set {
	if i < 0 || i >= MaxRelations {
		panic(fmt.Sprintf("bitset: relation index %d out of range [0,%d)", i, MaxRelations))
	}
	return Set(1) << uint(i)
}

// Full returns the set {0, 1, …, n-1}.
func Full(n int) Set {
	if n < 0 || n > MaxRelations {
		panic(fmt.Sprintf("bitset: relation count %d out of range [0,%d]", n, MaxRelations))
	}
	return Set(1)<<uint(n) - 1
}

// Of returns the set containing exactly the given indexes.
func Of(indexes ...int) Set {
	var s Set
	for _, i := range indexes {
		s |= Single(i)
	}
	return s
}

// Has reports whether i is a member of s.
func (s Set) Has(i int) bool { return s&Single(i) != 0 }

// Add returns s ∪ {i}.
func (s Set) Add(i int) Set { return s | Single(i) }

// Remove returns s \ {i}.
func (s Set) Remove(i int) Set { return s &^ Single(i) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set { return s &^ t }

// IsEmpty reports whether s is the empty set.
func (s Set) IsEmpty() bool { return s == 0 }

// Count returns |s|.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// IsSingleton reports whether |s| == 1, i.e. s is a single relation. Singleton
// table indexes are exactly the powers of two, which the optimizer's fill loop
// must skip (§4.2).
func (s Set) IsSingleton() bool { return s != 0 && s&(s-1) == 0 }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Overlaps reports whether s ∩ t ≠ ∅.
func (s Set) Overlaps(t Set) bool { return s&t != 0 }

// Min returns the smallest index in s. It panics on the empty set. In the
// paper's terms this is min S under the fixed total order on relation names
// (§5.3), computed as δ_S(1) = S & −S then converted to an index.
func (s Set) Min() int {
	if s == 0 {
		panic("bitset: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// MinSet returns the singleton {min s} (the paper's S & −S). It panics on the
// empty set.
func (s Set) MinSet() Set {
	if s == 0 {
		panic("bitset: MinSet of empty set")
	}
	return s & -s
}

// Max returns the largest index in s. It panics on the empty set.
func (s Set) Max() int {
	if s == 0 {
		panic("bitset: Max of empty set")
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Members returns the indexes of s in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// ForEach calls fn for each member of s in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for t := s; t != 0; t &= t - 1 {
		fn(bits.TrailingZeros64(uint64(t)))
	}
}

// NextSubset advances cur to the next nonempty proper subset of s using the
// two's-complement successor from §4.2:
//
//	succ(L) = S & (L − S)
//
// Enumeration starts from s.MinSet() (which is δ_S(1)) and ends when the
// returned value equals s itself (δ_S(2^m − 1)), which is not a proper subset
// and must not be used. The canonical loop is:
//
//	for l := s.MinSet(); l != s; l = s.NextSubset(l) { r := s ^ l; … }
//
// The iteration visits every one of the 2^m − 2 nonempty proper subsets
// exactly once (m = |s|), in increasing order of contracted value γ_S(L).
func (s Set) NextSubset(cur Set) Set { return s & (cur - s) }

// NextSubsetStride is the generalized successor from the paper's footnote 3:
// succ(δ(i)) = δ(i + k) for an arbitrary odd stride k, allowing the subsets to
// be visited in alternative orders that better match the randomness assumption
// of §3.3. stride must be odd so the walk cycles through all 2^m residues.
// The caller starts at any valid nonempty proper subset and stops when the
// start value recurs, skipping 0 and s when they appear:
//
//	start := s.MinSet()
//	l := start
//	for {
//		use(l)
//		l = s.NextSubsetStride(l, stride)
//		for l == 0 || l == s { l = s.NextSubsetStride(l, stride) }
//		if l == start { break }
//	}
func (s Set) NextSubsetStride(cur Set, stride int) Set {
	if stride&1 == 0 {
		panic("bitset: stride must be odd")
	}
	next := cur
	for i := 0; i < stride; i++ {
		next = s & (next - s)
	}
	return next
}

// FirstKSubset returns the numerically smallest set of exactly k relations,
// {0, 1, …, k−1} — the starting point of the Gosper enumeration over a
// popcount rank layer. k = 0 yields the empty set.
func FirstKSubset(k int) Set {
	if k < 0 || k > MaxRelations {
		panic(fmt.Sprintf("bitset: subset size %d out of range [0,%d]", k, MaxRelations))
	}
	return Set(1)<<uint(k) - 1
}

// LastKSubset returns the numerically largest k-subset of {0, …, n−1}: the k
// top bits of an n-bit universe. It is the Gosper enumeration's stopping
// value. k = 0 yields the empty set.
func LastKSubset(n, k int) Set {
	if k < 0 || k > n || n > MaxRelations {
		panic(fmt.Sprintf("bitset: k-subset bounds (n=%d, k=%d) out of range", n, k))
	}
	return (Set(1)<<uint(k) - 1) << uint(n-k)
}

// NextKSubset returns the numerically next set with the same popcount as v —
// Gosper's hack. Starting from FirstKSubset(k) it enumerates every k-subset
// of {0, …, n−1} in ascending numeric order; after LastKSubset(n, k) the
// returned value has bits at positions ≥ n, which is the caller's stopping
// condition. The empty set maps to itself. The enumeration order matters to
// the optimizer only in that it is fixed: within a popcount rank layer the DP
// entries are independent, so any deterministic order yields identical
// tables.
func NextKSubset(v Set) Set {
	if v == 0 {
		return 0
	}
	c := v & -v // lowest set bit
	r := v + c  // ripple it into the next run
	// (v ^ r) isolates the changed bits; shifting by 2 and dividing by c
	// right-justifies the ones that fell out of the run.
	return r | ((v^r)>>2)/c
}

// Binomial returns C(n, k), the number of k-subsets of an n-set. It is exact
// for every n ≤ MaxRelations (far below uint64 overflow).
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := uint64(1)
	for i := 1; i <= k; i++ {
		out = out * uint64(n-k+i) / uint64(i)
	}
	return out
}

// AppendKSubsetRange appends to dst the first member of each chunk of
// `chunk` consecutive k-subsets of {0, …, n−1} in Gosper order and returns
// the extended slice: chunk i covers the k-subsets from element i to just
// before element i+1 (the final chunk holds the remainder,
// Binomial(n,k) − (len−1)·chunk subsets). The parallel fill hands chunks to
// workers by striding this slice, so reusing dst across layers keeps the
// schedule allocation-free in steady state. k = 0 appends a single chunk
// holding the empty set; k > n appends nothing.
func AppendKSubsetRange(dst []Set, n, k, chunk int) []Set {
	if n < 0 || n > MaxRelations {
		panic(fmt.Sprintf("bitset: universe size %d out of range [0,%d]", n, MaxRelations))
	}
	if chunk < 1 {
		panic(fmt.Sprintf("bitset: chunk size %d must be ≥ 1", chunk))
	}
	if k < 0 || k > n {
		return dst
	}
	if k == 0 {
		return append(dst, Empty)
	}
	last := LastKSubset(n, k)
	s := FirstKSubset(k)
	for idx := 0; ; idx++ {
		if idx%chunk == 0 {
			dst = append(dst, s)
		}
		if s == last {
			return dst
		}
		s = NextKSubset(s)
	}
}

// DescendSubset is the classic descending enumerator (L − 1) & S. Starting
// from s&(s-1)... the canonical loop is:
//
//	for l := s.DescendSubset(s); l != 0; l = s.DescendSubset(l) { … }
//
// which visits the same 2^m − 2 nonempty proper subsets as NextSubset but in
// decreasing order of contracted value. Provided so the two enumerators can
// be property-tested against each other and ablated in benchmarks.
func (s Set) DescendSubset(cur Set) Set { return (cur - 1) & s }

// Dilate is the paper's δ_S operator (§4.2): it spreads the low |s| bits of i
// into the bit positions occupied by s. For example with s = 0b11001,
// Dilate(0b101) = 0b10001. Only the low s.Count() bits of i are used.
func (s Set) Dilate(i uint64) Set {
	var out Set
	bit := uint64(1)
	for t := s; t != 0; t &= t - 1 {
		if i&bit != 0 {
			out |= t & -t
		}
		bit <<= 1
	}
	return out
}

// Contract is the paper's γ_S operator, the left-inverse of Dilate: it
// collects the bits of w at positions occupied by s into a dense low-order
// integer. Contract(Dilate(i)) == i for i < 2^|s|.
func (s Set) Contract(w Set) uint64 {
	var out uint64
	bit := uint64(1)
	for t := s; t != 0; t &= t - 1 {
		if w&(t&-t) != 0 {
			out |= bit
		}
		bit <<= 1
	}
	return out
}

// String renders the set like {R0, R2, R5}; the empty set renders as {}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteByte('R')
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
