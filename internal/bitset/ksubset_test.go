package bitset

import (
	"math/bits"
	"testing"
)

// filterKSubsets is the oracle: every value in [0, 2^n) with popcount k, in
// ascending numeric order.
func filterKSubsets(n, k int) []Set {
	var out []Set
	for v := Set(0); v < Set(1)<<uint(n); v++ {
		if bits.OnesCount64(uint64(v)) == k {
			out = append(out, v)
		}
	}
	return out
}

// TestNextKSubsetMatchesFilter checks the Gosper enumeration against the
// popcount-filter oracle for every (n, k) with n ≤ 14, including the edge
// layers k = 1 (singletons) and k = n (one subset: the full set).
func TestNextKSubsetMatchesFilter(t *testing.T) {
	for n := 1; n <= 14; n++ {
		for k := 1; k <= n; k++ {
			want := filterKSubsets(n, k)
			if got := uint64(len(want)); got != Binomial(n, k) {
				t.Fatalf("oracle bug: %d subsets vs C(%d,%d)=%d", got, n, k, Binomial(n, k))
			}
			last := LastKSubset(n, k)
			var got []Set
			for s := FirstKSubset(k); ; s = NextKSubset(s) {
				got = append(got, s)
				if s == last {
					break
				}
				if len(got) > len(want) {
					t.Fatalf("n=%d k=%d: enumeration overran the layer (at %v)", n, k, s)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d subsets, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: element %d = %v, want %v", n, k, i, got[i], want[i])
				}
			}
			// Past the last k-subset, Gosper must leave the n-bit universe —
			// the stopping condition the optimizer's bound check relies on.
			if next := NextKSubset(last); k < n && next <= Full(n) {
				t.Fatalf("n=%d k=%d: NextKSubset(last)=%v still inside Full(%d)", n, k, next, n)
			}
		}
	}
}

// TestNextKSubsetEmpty pins the k=0 convention: the empty set is a fixpoint.
func TestNextKSubsetEmpty(t *testing.T) {
	if got := NextKSubset(Empty); got != Empty {
		t.Fatalf("NextKSubset(∅) = %v, want ∅", got)
	}
}

// TestKSubsetRangeTilesLayer checks that the chunk starts partition the
// Gosper enumeration exactly: walking `chunk` subsets from each start (the
// remainder from the last) reconstructs the filter oracle with no overlap,
// for a spread of chunk sizes including 1 and one larger than the layer.
func TestKSubsetRangeTilesLayer(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for k := 1; k <= n; k++ {
			want := filterKSubsets(n, k)
			total := len(want)
			for _, chunk := range []int{1, 2, 3, 7, total, total + 5} {
				starts := AppendKSubsetRange(nil, n, k, chunk)
				wantChunks := (total + chunk - 1) / chunk
				if len(starts) != wantChunks {
					t.Fatalf("n=%d k=%d chunk=%d: %d chunks, want %d", n, k, chunk, len(starts), wantChunks)
				}
				var got []Set
				for ci, s := range starts {
					size := chunk
					if ci == len(starts)-1 {
						size = total - ci*chunk
					}
					for j := 0; j < size; j++ {
						got = append(got, s)
						s = NextKSubset(s)
					}
				}
				if len(got) != total {
					t.Fatalf("n=%d k=%d chunk=%d: tiled %d subsets, want %d", n, k, chunk, len(got), total)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d chunk=%d: element %d = %v, want %v", n, k, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestKSubsetRangeEdges pins the degenerate inputs.
func TestKSubsetRangeEdges(t *testing.T) {
	if got := AppendKSubsetRange(nil, 5, 0, 4); len(got) != 1 || got[0] != Empty {
		t.Fatalf("AppendKSubsetRange(nil,5,0,4) = %v, want [∅]", got)
	}
	if got := AppendKSubsetRange(nil, 5, 6, 4); got != nil {
		t.Fatalf("AppendKSubsetRange(nil,5,6,4) = %v, want nil", got)
	}
	// Reuse path: appending into a recycled slice must not disturb content.
	buf := make([]Set, 0, 8)
	a := AppendKSubsetRange(buf, 4, 2, 2)
	b := AppendKSubsetRange(a[:0], 4, 2, 2)
	if len(a) != len(b) {
		t.Fatalf("reuse changed chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if b[i] != a[i] {
			t.Fatalf("reuse changed chunk %d: %v vs %v", i, b[i], a[i])
		}
	}
}

// TestBinomial spot-checks the closed form against Pascal's rule.
func TestBinomial(t *testing.T) {
	for n := 0; n <= MaxRelations; n++ {
		for k := 0; k <= n; k++ {
			var want uint64
			switch {
			case k == 0 || k == n:
				want = 1
			default:
				want = Binomial(n-1, k-1) + Binomial(n-1, k)
			}
			if got := Binomial(n, k); got != want {
				t.Fatalf("C(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
	if got := Binomial(5, 7); got != 0 {
		t.Fatalf("C(5,7) = %d, want 0", got)
	}
}
