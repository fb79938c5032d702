package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blitzsplit/internal/joingraph"
)

// synthCase is one fixed synthesis input of the seeded-values contract with
// its golden key digest and the generator's next Int63 after synthesis.
type synthCase struct {
	name   string
	cards  []float64
	edges  []joingraph.Edge
	seed   int64
	digest uint64
	next   int64
}

// goldenCases cover every branch of the key draw: domain 1, a power of two
// (4), a small odd domain (3), key–foreign-key domains of 5000–20000, a
// domain just past 2^31, and domains near 10^18 and 6·10^18 where
// Int63n's rejection loop redraws often.
func goldenCases() []synthCase {
	kfkCards := []float64{5000, 20000, 7500, 12000, 16000, 9000}
	var kfk []joingraph.Edge
	for j := 1; j < len(kfkCards); j++ {
		kfk = append(kfk, joingraph.Edge{A: j - 1, B: j, Selectivity: 1 / max(kfkCards[j-1], kfkCards[j])})
	}
	return []synthCase{
		{"domain1", []float64{300, 200}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 1}}, 1, 0x918af6da967264f5, 1901631351628571046},
		{"domain4", []float64{500, 700, 90}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 0.25}, {A: 1, B: 2, Selectivity: 0.25}}, 2, 0xfb1161ea2def1d7b, 6637884826101739176},
		{"domain3", []float64{640, 480}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 1.0 / 3}}, 3, 0xf4318520d49ed791, 5638174328355734391},
		{"kfk-chain", kfkCards, kfk, 31, 0xb247cae20ebaea6c, 4392083993020171542},
		{"kfk-star", []float64{20000, 5000, 8000, 11000}, []joingraph.Edge{
			{A: 0, B: 1, Selectivity: 1.0 / 20000}, {A: 0, B: 2, Selectivity: 1.0 / 20000}, {A: 0, B: 3, Selectivity: 1.0 / 20000},
			{A: 1, B: 2, Selectivity: 1.0 / 8000},
		}, 44, 0x89653ea4f097aa1f, 1173211374045954058},
		{"domain2^31+1", []float64{4000, 3000}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 1.0 / (1<<31 + 1)}}, 5, 0xfe4e5cd6662d708a, 4389983266807818093},
		{"domain1e18", []float64{4000, 3000, 2000}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 1e-18}, {A: 0, B: 2, Selectivity: 1.0 / 7}}, 6, 0xdce5cdf02c48fec6, 840851321119836371},
		{"domain6e18", []float64{3000, 2500}, []joingraph.Edge{{A: 0, B: 1, Selectivity: 1.0 / 6e18}}, 7, 0xe7ab93d7c4e32b02, 558985691716121796},
	}
}

func (c synthCase) graph(t *testing.T) *joingraph.Graph {
	t.Helper()
	g := joingraph.New(len(c.cards))
	for _, e := range c.edges {
		if err := g.AddEdge(e.A, e.B, e.Selectivity); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// keyDigest is an FNV-64a digest of every join-key column of inst, in
// relation then column-name order: each column's name, then its values as
// little-endian 64-bit words.
func keyDigest(inst *Instance) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, rel := range inst.Relations {
		var names []string
		for _, e := range inst.Graph.Edges() {
			if e.A == i || e.B == i {
				names = append(names, JoinColumn(e.A, e.B))
			}
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name))
			for _, v := range rel.Cols[name] {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestSynthesizeGolden pins the seeded-values contract behind /v1/execute:
// the same (cards, graph, seed) always synthesizes the same join keys, and
// SynthesizeRand leaves an injected generator at the same position, so
// callers that keep drawing from it (testutil generators, fuzz harnesses)
// see the same stream. The digests were recorded from a synthesis that
// called rng.Int63n once per value; any change to the draw sequence fails
// here. Each case is synthesized twice: into a fresh slab, and into the
// reused slab of a larger instance released just before, whose stale keys
// must all be overwritten.
func TestSynthesizeGolden(t *testing.T) {
	bigG := joingraph.New(2)
	bigG.MustAddEdge(0, 1, 1.0/3)
	for _, c := range goldenCases() {
		g := c.graph(t)
		for _, reuse := range []bool{false, true} {
			var stale *int64
			if reuse {
				big, err := Synthesize([]float64{100_000, 100_000}, bigG, c.seed)
				if err != nil {
					t.Fatal(err)
				}
				stale = &big.slab[0]
				big.Release()
			}
			rng := rand.New(rand.NewSource(c.seed))
			inst, err := SynthesizeRand(c.cards, g, rng)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if reuse && &inst.slab[0] != stale {
				t.Fatalf("%s: synthesis after a release did not reuse the released slab", c.name)
			}
			got, next := keyDigest(inst), rng.Int63()
			if got != c.digest {
				t.Errorf("%s (reuse %v): key digest %#x, want %#x", c.name, reuse, got, c.digest)
			}
			if next != c.next {
				t.Errorf("%s (reuse %v): generator's next Int63 is %d, want %d", c.name, reuse, next, c.next)
			}
			inst2, err := Synthesize(c.cards, g, c.seed)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if d := keyDigest(inst2); d != got {
				t.Errorf("%s (reuse %v): Synthesize digest %#x, SynthesizeRand %#x", c.name, reuse, d, got)
			}
			inst.Release()
			inst2.Release()
		}
	}
}

// TestReleaseTwice: a second Release hands nothing back, so two later
// instances never share a slab; a released instance keeps its row counts
// but no columns.
func TestReleaseTwice(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.01)
	cards := []float64{500, 400}
	inst, err := Synthesize(cards, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst.Release()
	inst.Release()
	if !inst.Released() {
		t.Fatal("Released() is false after Release")
	}
	for i, rel := range inst.Relations {
		if len(rel.Cols) != 0 || rel.Rows() != int(cards[i]) {
			t.Errorf("released R%d: %d columns, %d rows", i, len(rel.Cols), rel.Rows())
		}
	}
	a, err := Synthesize(cards, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cards, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &a.slab[0] == &b.slab[0] {
		t.Fatal("two live instances share one slab after a double Release")
	}
	a.Release()
	b.Release()
}

// TestKeyDomain: the domain is round(1/s) wherever that fits an int64 and
// clamps to math.MaxInt64 below s = 2^-63, where the inverse overflows.
func TestKeyDomain(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want int64
	}{
		{1, 1},
		{0.7, 1},
		{0.25, 4},
		{1.0 / 3, 3},
		{1.0 / 12000, 12000},
		{1e-18, 999_999_999_999_999_872}, // 1/1e-18 rounded to float64
		{math.Ldexp(1, -62), 1 << 62},
		{math.Ldexp(1, -63), math.MaxInt64},
		{1e-19, math.MaxInt64},
		{1e-20, math.MaxInt64},
		{5e-324, math.MaxInt64},
	} {
		if got := keyDomain(c.s); got != c.want {
			t.Errorf("keyDomain(%g) = %d, want %d", c.s, got, c.want)
		}
	}
}

// TestSynthesizeTinySelectivity: a valid selectivity too small for its
// inverse to fit an int64 synthesizes over the clamped domain instead of
// panicking in the key draw.
func TestSynthesizeTinySelectivity(t *testing.T) {
	for _, s := range []float64{1e-19, 1e-20, 5e-324} {
		g := joingraph.New(2)
		g.MustAddEdge(0, 1, s)
		inst, err := Synthesize([]float64{300, 200}, g, 9)
		if err != nil {
			t.Fatalf("s=%g: %v", s, err)
		}
		for i, rel := range inst.Relations {
			vals := rel.Cols[JoinColumn(0, 1)]
			if len(vals) != rel.Rows() {
				t.Fatalf("s=%g: R%d has %d keys for %d rows", s, i, len(vals), rel.Rows())
			}
			for _, v := range vals {
				if v < 0 || v == math.MaxInt64 {
					t.Fatalf("s=%g: R%d key %d outside [0, MaxInt64)", s, i, v)
				}
			}
		}
	}
}

// FuzzSynthesizeDraw is the differential test of the key-draw kernel:
// fillInt63n must return rand.Int63n's values for the same seeded stream,
// value for value, and leave the generator at the same position. The
// checked-in corpus covers domain 1, powers of two, small odd domains,
// 2^31±1, 2^62+1 (about half of all draws rejected) and math.MaxInt64; the
// seeds below run the smallest odd domain and the largest, n = 3 and
// n = 2^63−1, on every plain test run.
func FuzzSynthesizeDraw(f *testing.F) {
	f.Add(int64(1), int64(3))
	f.Add(int64(2), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, seed, domain int64) {
		if domain <= 0 {
			t.Skip("Int63n needs a positive domain")
		}
		const n = 1000
		got := make([]int64, n)
		kernel, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		fillInt63n(kernel, got, domain)
		for i, v := range got {
			if want := ref.Int63n(domain); v != want {
				t.Fatalf("seed %d domain %d: value %d is %d, Int63n gives %d", seed, domain, i, v, want)
			}
		}
		if a, b := kernel.Int63(), ref.Int63(); a != b {
			t.Fatalf("seed %d domain %d: generator position differs after the column (next %d vs %d)", seed, domain, a, b)
		}
	})
}
