package check_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/spec"
	"blitzsplit/internal/testutil"
)

// FuzzOptimize decodes arbitrary bytes into a valid query (testutil's total
// mapping — no input is rejected) and runs the entire invariant lattice on
// it: oracle agreement, plan well-formedness, cost/counter bookkeeping, the
// serial/parallel and threshold identities, no-product bounds, and the
// metamorphic transforms.
//
//	go test -fuzz=FuzzOptimize -fuzztime=30s ./internal/check/
func FuzzOptimize(f *testing.F) {
	// One byte per decoder decision: n, cards…, graph?, edges…, model, flags.
	f.Add([]byte{})                                     // all-zero decode: n=1, card 0
	f.Add([]byte{3, 5, 6, 7, 4, 1, 2, 99, 0, 3, 0})     // 4 relations, small graph
	f.Add([]byte{7, 11, 11, 11, 11, 11, 11, 11, 11, 0}) // 8-way Cartesian product, 1e30 cards
	f.Add([]byte{5, 4, 5, 6, 4, 5, 6, 1, 9, 1, 3, 2, 7, 0, 2, 1})
	f.Add([]byte{2, 9, 10, 3, 2, 0, 0, 4, 3})   // near the overflow limit
	f.Add([]byte{4, 3, 4, 5, 6, 2, 1, 0, 0, 1}) // left-deep flag set
	f.Add([]byte{6, 2, 3, 4, 5, 6, 7, 1, 200, 8, 1, 12, 2, 20, 3, 2, 255, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		fq := testutil.QueryFromBytes(data)
		var c check.Checker
		if err := c.Full(fq.Query, fq.Model, fq.LeftDeep, fq.Aux); err != nil {
			t.Fatalf("invariant violated (n=%d, model=%s, leftDeep=%v): %v",
				len(fq.Query.Cards), fq.Model.Name(), fq.LeftDeep, err)
		}
	})
}

// FuzzSpecRoundTrip feeds arbitrary bytes to the spec parser: it must never
// panic, and any input it accepts must survive a marshal → parse → marshal
// round trip as a fixpoint — re-emitted JSON parses back to the same File
// and re-emits byte-identically.
//
//	go test -fuzz=FuzzSpecRoundTrip -fuzztime=30s ./internal/check/
func FuzzSpecRoundTrip(f *testing.F) {
	example, err := json.Marshal(spec.Example())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(`{"relations":[{"name":"a","cardinality":10}]}`))
	f.Add([]byte(`{"relations":[{"name":"a","cardinality":-1}]}`))
	f.Add([]byte(`{"relations":[{"name":"a","cardinality":1e400}]}`))
	f.Add([]byte(`{"relations":[{"name":"a","cardinality":2},{"name":"b","cardinality":3}],` +
		`"joins":[{"a":"a","b":"b","selectivity":1.5}]}`))
	f.Add([]byte(`{"relations":[{"name":"a","cardinality":2}],"joins":[{"a":"a","b":"a","selectivity":0.5}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := spec.Parse(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		out1, err := json.Marshal(f1)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		f2, err := spec.Parse(out1)
		if err != nil {
			t.Fatalf("re-emitted spec %s rejected: %v", out1, err)
		}
		// An input's empty-but-present "joins":[] becomes nil after the
		// omitempty marshal; both mean "no joins", so compare them as equal.
		if len(f1.Joins) == 0 && len(f2.Joins) == 0 {
			f1.Joins, f2.Joins = nil, nil
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", f1, f2)
		}
		out2, err := json.Marshal(f2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("marshal is not a fixpoint:\n%s\nvs\n%s", out1, out2)
		}
	})
}

// FuzzBitset cross-checks the optimizer's subset enumerators — the §4.2
// two's-complement successor, the descending enumerator, the odd-stride
// generalization (footnote 3), and Gosper's k-subset hack with its chunked
// range splitter — against brute-force popcount-filter references, plus the
// Dilate/Contract bijection they all rest on.
//
//	go test -fuzz=FuzzBitset -fuzztime=30s ./internal/check/
func FuzzBitset(f *testing.F) {
	f.Add(uint32(0b1011), uint8(0x42), uint8(3))
	f.Add(uint32(0), uint8(0), uint8(0))
	f.Add(uint32(0x3fff), uint8(0xff), uint8(255))
	f.Add(uint32(0b1000000000001), uint8(0x93), uint8(7))
	f.Fuzz(func(t *testing.T, sRaw uint32, nk uint8, chunkRaw uint8) {
		s := bitset.Set(sRaw) & bitset.Full(14) // bound |s| so enumeration stays fast
		m := s.Count()

		// Reference ascending enumeration: Dilate over contracted values.
		var ref []bitset.Set
		for i := uint64(1); i < uint64(1)<<m-1; i++ {
			w := s.Dilate(i)
			if got := s.Contract(w); got != i {
				t.Fatalf("Contract(Dilate(%d)) = %d on %v", i, got, s)
			}
			if !w.SubsetOf(s) || w == 0 || w == s {
				t.Fatalf("Dilate(%d) = %v is not a proper nonempty subset of %v", i, w, s)
			}
			ref = append(ref, w)
		}

		// The paper's successor must visit exactly ref, in order.
		if m >= 2 {
			i := 0
			for l := s.MinSet(); l != s; l = s.NextSubset(l) {
				if i >= len(ref) || ref[i] != l {
					t.Fatalf("NextSubset diverges from Dilate order at step %d on %v", i, s)
				}
				i++
			}
			if i != len(ref) {
				t.Fatalf("NextSubset visited %d subsets of %v, want %d", i, s, len(ref))
			}

			// Descending enumeration is the exact reverse.
			i = len(ref)
			for l := s.DescendSubset(s); l != 0; l = s.DescendSubset(l) {
				i--
				if i < 0 || ref[i] != l {
					t.Fatalf("DescendSubset diverges from reversed Dilate order on %v", s)
				}
			}
			if i != 0 {
				t.Fatalf("DescendSubset visited %d subsets of %v, want %d", len(ref)-i, s, len(ref))
			}

			// The odd-stride walk visits every proper nonempty subset once.
			stride := 2*(int(chunkRaw%8)) + 1
			seen := make(map[bitset.Set]bool, len(ref))
			start := s.MinSet()
			l := start
			for {
				if seen[l] {
					t.Fatalf("stride-%d walk revisited %v on %v", stride, l, s)
				}
				seen[l] = true
				l = s.NextSubsetStride(l, stride)
				for l == 0 || l == s {
					l = s.NextSubsetStride(l, stride)
				}
				if l == start {
					break
				}
			}
			if len(seen) != len(ref) {
				t.Fatalf("stride-%d walk visited %d subsets of %v, want %d", stride, len(seen), s, len(ref))
			}
		}

		// Gosper's hack over a rank layer vs the popcount filter.
		n := 1 + int(nk>>4)%14
		k := int(nk&15) % (n + 1)
		var gosper []bitset.Set
		if k > 0 {
			last := bitset.LastKSubset(n, k)
			for v := bitset.FirstKSubset(k); ; v = bitset.NextKSubset(v) {
				gosper = append(gosper, v)
				if v == last {
					break
				}
			}
		} else {
			gosper = []bitset.Set{0}
		}
		var filtered []bitset.Set
		for v := bitset.Set(0); v < bitset.Set(1)<<n; v++ {
			if v.Count() == k {
				filtered = append(filtered, v)
			}
		}
		if !reflect.DeepEqual(gosper, filtered) {
			t.Fatalf("Gosper enumeration over (n=%d, k=%d) differs from popcount filter", n, k)
		}
		if bitset.Binomial(n, k) != uint64(len(gosper)) {
			t.Fatalf("Binomial(%d,%d) = %d, enumeration found %d", n, k, bitset.Binomial(n, k), len(gosper))
		}

		// Chunked range splitting covers the layer exactly: chunk i's first
		// member is element i*chunk of the Gosper order.
		chunk := 1 + int(chunkRaw)%7
		starts := bitset.KSubsetRange(n, k, chunk)
		want := (len(gosper) + chunk - 1) / chunk
		if len(starts) != want {
			t.Fatalf("KSubsetRange(n=%d,k=%d,chunk=%d) returned %d chunks, want %d",
				n, k, chunk, len(starts), want)
		}
		for i, st := range starts {
			if gosper[i*chunk] != st {
				t.Fatalf("chunk %d starts at %v, want Gosper element %d = %v", i, st, i*chunk, gosper[i*chunk])
			}
		}
	})
}

// FuzzEnumerators decodes arbitrary bytes into a valid query and runs the
// enumerator-agreement lattice on it: explicit-CCP eligibility errors, the
// Auto fallback identity, CCP-vs-BushyNoCP same-space agreement, superset
// cost domination, product-free bitwise identity, the 2·pairs LoopIters
// bookkeeping, and the bitmap-vs-BFS connectivity differential. The
// checked-in corpus spans a chain, a star, a cycle, a clique, and a
// disconnected graph at n = 5.
//
//	go test -fuzz=FuzzEnumerators -fuzztime=30s ./internal/check/
func FuzzEnumerators(f *testing.F) {
	// n byte = 4 → n = 5; pairByIndex order makes (0,1)=0 (0,2)=1 (0,3)=2
	// (0,4)=3 (1,2)=4 (1,3)=5 (1,4)=6 (2,3)=7 (2,4)=8 (3,4)=9.
	f.Add([]byte{4, 3, 7, 11, 5, 9, 1, 4, 0, 2, 4, 2, 7, 2, 9, 2, 0, 0, 1})                                      // chain
	f.Add([]byte{4, 3, 7, 11, 5, 9, 1, 4, 0, 2, 1, 2, 2, 2, 3, 2, 0, 0, 1})                                      // star, hub 0
	f.Add([]byte{4, 3, 7, 11, 5, 9, 1, 5, 0, 2, 4, 2, 7, 2, 9, 2, 3, 2, 0, 0, 1})                                // cycle
	f.Add([]byte{4, 3, 7, 11, 5, 9, 1, 10, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8, 2, 9, 2, 1, 0, 1}) // clique
	f.Add([]byte{4, 3, 7, 11, 5, 9, 1, 2, 0, 2, 4, 2, 0, 0, 1})                                                  // disconnected: {0,1,2} joined, 3 and 4 isolated
	f.Fuzz(func(t *testing.T, data []byte) {
		fq := testutil.QueryFromBytes(data)
		var c check.Checker
		opts := core.Options{Model: fq.Model, LeftDeep: fq.LeftDeep, DiscardTable: true}
		if err := c.EnumeratorAgree(fq.Query, opts); err != nil {
			t.Fatalf("enumerator invariant violated (n=%d, model=%s, leftDeep=%v): %v",
				len(fq.Query.Cards), fq.Model.Name(), fq.LeftDeep, err)
		}
	})
}

// FuzzExecVectorized is the executor differential: decode arbitrary bytes
// into a query, synthesize a small instance, and demand that the vectorized
// executor under all three join algorithms and the adaptive re-optimizing
// driver each report CountRows' plan-free count on the optimal and a random
// plan. Row-limit aborts are skipped — the guard is a resource bound, not a
// semantic difference.
//
//	go test -fuzz=FuzzExecVectorized -fuzztime=30s ./internal/check/
func FuzzExecVectorized(f *testing.F) {
	f.Add([]byte{})                             // n=1, empty relation
	f.Add([]byte{3, 4, 4, 4, 1, 1, 2, 3, 0})    // 4 relations, small graph
	f.Add([]byte{7, 4, 4, 4, 4, 4, 4, 4, 4, 0}) // 8-way Cartesian product
	f.Add([]byte{5, 6, 6, 6, 6, 6, 1, 9, 1, 3, 2, 7, 0, 2, 1})
	f.Add([]byte{2, 4, 5, 1, 1, 0, 1})                     // 3 relations, one edge
	f.Add([]byte{4, 3, 0, 5, 6, 1, 4, 2, 1, 3, 7, 2, 255}) // empty relation in a join
	f.Fuzz(func(t *testing.T, data []byte) {
		fq := testutil.QueryFromBytes(data)
		// The palette reaches 1e30-row relations; clamp to executable sizes
		// while keeping the 0/1/2-row edge cases reachable.
		cards := make([]float64, len(fq.Query.Cards))
		for i, c := range fq.Query.Cards {
			cards[i] = math.Trunc(math.Mod(c, 37))
		}
		rng := rand.New(rand.NewSource(fq.Aux))
		inst, err := engine.SynthesizeRand(cards, fq.Query.Graph, rng)
		if err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		var plans []*plan.Node
		if res, err := core.Optimize(core.Query{Cards: cards, Graph: fq.Query.Graph}, core.Options{}); err == nil {
			plans = append(plans, res.Plan)
		}
		if fq.Query.Graph != nil {
			plans = append(plans, baseline.RandomPlan(cards, fq.Query.Graph, cost.Naive{}, rng))
		}
		if len(plans) == 0 {
			return
		}
		if err := check.ExecutionAgree(inst, 4096, plans...); err != nil {
			t.Fatalf("executors disagree (n=%d): %v", len(cards), err)
		}
	})
}
