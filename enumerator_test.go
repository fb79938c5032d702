package blitzsplit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// disconnectedQuery is two joined pairs with no predicate between them: a
// disconnected join graph, ineligible for the CCP enumerator.
func disconnectedQuery() *Query {
	q := NewQuery()
	q.MustAddRelation("a", 100)
	q.MustAddRelation("b", 200)
	q.MustAddRelation("c", 300)
	q.MustAddRelation("d", 400)
	q.MustJoin("a", "b", 0.01)
	q.MustJoin("c", "d", 0.02)
	return q
}

// WithEnumerator must accept exactly the three named strategies.
func TestWithEnumeratorValidates(t *testing.T) {
	for _, e := range []Enumerator{EnumeratorBlitz, EnumeratorCCP, EnumeratorAuto} {
		if _, err := newConfig([]Option{WithEnumerator(e)}); err != nil {
			t.Errorf("WithEnumerator(%v): %v", e, err)
		}
	}
	if _, err := newConfig([]Option{WithEnumerator(Enumerator(99))}); err == nil {
		t.Error("WithEnumerator(99) must be rejected")
	}
}

// The engine resolves Auto to a concrete strategy before the cache key is
// built, so on a connected query Auto and an explicit CCP request share one
// cache entry, while the blitz default keys separately (the two strategies
// search different plan spaces and may cache different optima).
func TestEngineEnumeratorKeySeparation(t *testing.T) {
	cards, edges := starQuery(7)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(7))

	ccpCold, err := eng.Optimize(nil, q, WithEnumerator(EnumeratorCCP))
	if err != nil {
		t.Fatal(err)
	}
	if ccpCold.Cached {
		t.Fatal("first ccp submission cannot hit")
	}
	auto, err := eng.Optimize(nil, q, WithEnumerator(EnumeratorAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Cached {
		t.Fatal("Auto on a connected query must resolve to CCP and hit its entry")
	}
	if math.Float64bits(auto.Cost) != math.Float64bits(ccpCold.Cost) || auto.Counters != ccpCold.Counters {
		t.Fatal("Auto hit is not bit-identical to the ccp cold run")
	}
	blitz, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if blitz.Cached {
		t.Fatal("the blitz default must not hit the ccp entry")
	}
	hit, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("the blitz resubmission must hit its own entry")
	}
}

// Warm CCP entries serve permuted resubmissions bit-identically, exactly
// like the blitz path — the cache-soundness invariant under the new key.
func TestEngineCCPHitBitIdentical(t *testing.T) {
	const n = 8
	cards, edges := starQuery(n)
	eng := New(EngineOptions{})
	cold, err := eng.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(n)), WithEnumerator(EnumeratorCCP))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		q := permutedQuery(t, cards, edges, rng.Perm(n))
		res, err := eng.Optimize(nil, q, WithEnumerator(EnumeratorCCP))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("trial %d: permuted ccp resubmission missed", trial)
		}
		if math.Float64bits(res.Cost) != math.Float64bits(cold.Cost) || res.Counters != cold.Counters {
			t.Fatalf("trial %d: ccp hit diverged from cold run", trial)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// An explicit CCP request on an ineligible query errors identically cold and
// warm — resolution happens before the cache lookup, so a hit can never mask
// the eligibility error — while Auto falls back to a result bit-identical to
// the blitz default.
func TestEngineEnumeratorUnsupported(t *testing.T) {
	eng := New(EngineOptions{})
	for i := 0; i < 2; i++ {
		if _, err := eng.Optimize(nil, disconnectedQuery(), WithEnumerator(EnumeratorCCP)); !errors.Is(err, ErrEnumeratorUnsupported) {
			t.Fatalf("round %d: error = %v, want ErrEnumeratorUnsupported", i, err)
		}
	}
	// Left-deep excludes CCP even on a connected graph.
	cards, edges := starQuery(6)
	q := permutedQuery(t, cards, edges, identityPerm(6))
	if _, err := eng.Optimize(nil, q, WithLeftDeep(), WithEnumerator(EnumeratorCCP)); !errors.Is(err, ErrEnumeratorUnsupported) {
		t.Fatalf("left-deep ccp: error = %v, want ErrEnumeratorUnsupported", err)
	}
	auto, err := eng.Optimize(nil, disconnectedQuery(), WithEnumerator(EnumeratorAuto))
	if err != nil {
		t.Fatal(err)
	}
	blitz, err := eng.Optimize(nil, disconnectedQuery())
	if err != nil {
		t.Fatal(err)
	}
	// The second disconnected submission hits the entry the first stored:
	// Auto resolved to blitz, so the two share a key.
	if !blitz.Cached {
		t.Fatal("blitz must hit the entry Auto-resolved-to-blitz stored")
	}
	if math.Float64bits(auto.Cost) != math.Float64bits(blitz.Cost) || auto.Counters != blitz.Counters {
		t.Fatal("Auto fallback diverged from the blitz default")
	}
}

// Topology-aware selection must be free on the serve hot path: with
// connectivity memoized in the canonical fingerprint, an Auto hit stays
// within the same O(1) allocation budget as the default path's hits.
func TestEngineAutoEnumeratorHitAllocs(t *testing.T) {
	const n = 12
	cards, edges := starQuery(n)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(n))
	opts := []Option{WithEnumerator(EnumeratorAuto)}
	if _, err := eng.Optimize(nil, q, opts...); err != nil {
		t.Fatal(err)
	}
	// 1000 runs for a stable average under -race; see TestEngineCacheHitAllocs.
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := eng.Optimize(nil, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("must measure the hit path")
		}
	})
	if limit := hitAllocsLimit(); allocs > limit {
		t.Errorf("auto-enumerator cache hit allocated %v times per op, want ≤ %v", allocs, limit)
	}
}

// The ladder's budget decisions are enumerator-independent: a memory budget
// the 2^n table cannot fit refuses the exhaustive rung and lands on IDP
// after the same two rung attempts whether blitz, CCP, or Auto is
// selected, and the IDP rung returns a plan of the same cost.
func TestLadderMemoryDegradationIdenticalAcrossEnumerators(t *testing.T) {
	type outcome struct {
		mode  string
		rungs int32
	}
	attempt := func(extra ...Option) (outcome, float64) {
		rungs := countRungs(t)
		opts := append([]Option{WithMemoryBudget(1024), WithDeadlineLadder()}, extra...)
		res, err := ladderChain(10).Optimize(opts...)
		if err != nil {
			t.Fatal(err)
		}
		requireVerified(t, res)
		if !res.Degraded {
			t.Fatalf("mode %q is not degraded", res.Mode)
		}
		return outcome{res.Mode, rungs.Load()}, res.Cost
	}

	base, baseCost := attempt()
	if base != (outcome{ModeIDP, 2}) {
		t.Fatalf("default ladder degraded as %+v, want IDP after 2 rungs", base)
	}
	for _, e := range []Enumerator{EnumeratorCCP, EnumeratorAuto} {
		got, cost := attempt(WithEnumerator(e))
		if got != base {
			t.Fatalf("enumerator %v degraded as %+v, default %+v", e, got, base)
		}
		if diff := math.Abs(cost-baseCost) / baseCost; diff > 1e-9 {
			t.Fatalf("enumerator %v IDP rung cost %v, default %v", e, cost, baseCost)
		}
	}
}

// An expired deadline degrades to the greedy floor on the identical rung
// schedule under every enumerator, and the greedy plan — which never consults
// the enumerator — is bit-identical across them.
func TestLadderDeadlineDegradationIdenticalAcrossEnumerators(t *testing.T) {
	attempt := func(extra ...Option) (string, int32, uint64) {
		rungs := countRungs(t)
		opts := append([]Option{WithTimeout(time.Nanosecond), WithDeadlineLadder()}, extra...)
		res, err := ladderChain(12).Optimize(opts...)
		if err != nil {
			t.Fatal(err)
		}
		requireVerified(t, res)
		return res.Mode, rungs.Load(), math.Float64bits(res.Cost)
	}

	mode, rungs, cost := attempt()
	if mode != ModeGreedy || rungs != 2 {
		t.Fatalf("default ladder: mode %q after %d rungs, want greedy after 2", mode, rungs)
	}
	for _, e := range []Enumerator{EnumeratorCCP, EnumeratorAuto} {
		m, r, c := attempt(WithEnumerator(e))
		if m != mode || r != rungs || c != cost {
			t.Fatalf("enumerator %v: mode %q rungs %d costbits %x; default %q %d %x",
				e, m, r, c, mode, rungs, cost)
		}
	}
}

// The facade ParseEnumerator mirrors the CLI flag grammar.
func TestParseEnumeratorFacade(t *testing.T) {
	for name, want := range map[string]Enumerator{
		"": EnumeratorBlitz, "blitz": EnumeratorBlitz, "ccp": EnumeratorCCP, "auto": EnumeratorAuto,
	} {
		got, err := ParseEnumerator(name)
		if err != nil || got != want {
			t.Errorf("ParseEnumerator(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseEnumerator("dpccp"); err == nil {
		t.Error("ParseEnumerator must reject unknown names")
	}
}
