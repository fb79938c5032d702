package blitzsplit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// permutedQuery builds the same logical query under a permuted relation
// numbering: relation i of the base ordering is inserted at position
// perm[i]. Costs, cardinalities and (relabeled) plans must not depend on
// this ordering — the invariance the plan cache's soundness rests on.
func permutedQuery(t testing.TB, cards []float64, edges [][3]float64, perm []int) *Query {
	t.Helper()
	n := len(cards)
	q := NewQuery()
	inv := make([]int, n) // inv[pos] = base index inserted at pos
	for i, p := range perm {
		inv[p] = i
	}
	for pos := 0; pos < n; pos++ {
		i := inv[pos]
		q.MustAddRelation(fmt.Sprintf("R%d", i), cards[i])
	}
	for _, e := range edges {
		q.MustJoin(fmt.Sprintf("R%d", int(e[0])), fmt.Sprintf("R%d", int(e[1])), e[2])
	}
	return q
}

// starQuery returns cards/edges for a star join with distinct cardinalities
// (so canonicalization is Exact and permuted resubmissions must all hit).
func starQuery(n int) ([]float64, [][3]float64) {
	cards := make([]float64, n)
	cards[0] = 1e6
	var edges [][3]float64
	for i := 1; i < n; i++ {
		cards[i] = float64(1000 * i)
		edges = append(edges, [3]float64{0, float64(i), 1 / float64(1000*i)})
	}
	return cards, edges
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// A warm engine must serve permuted resubmissions from the cache,
// bit-identical — cost, cardinality, counters — to the cold run that
// populated the entry, and the served plan must pass Verify against the
// resubmitted labeling.
func TestEngineCacheHitBitIdentical(t *testing.T) {
	const n = 8
	cards, edges := starQuery(n)
	eng := New(EngineOptions{})

	cold, err := eng.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(n)))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	if err := cold.Verify(); err != nil {
		t.Fatalf("cold result: %v", err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		q := permutedQuery(t, cards, edges, rng.Perm(n))
		res, err := eng.Optimize(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("trial %d: permuted resubmission missed the cache", trial)
		}
		if math.Float64bits(res.Cost) != math.Float64bits(cold.Cost) {
			t.Fatalf("trial %d: hit cost %v ≠ cold cost %v", trial, res.Cost, cold.Cost)
		}
		if math.Float64bits(res.Cardinality) != math.Float64bits(cold.Cardinality) {
			t.Fatalf("trial %d: hit cardinality diverged", trial)
		}
		if res.Counters != cold.Counters {
			t.Fatalf("trial %d: hit counters %+v ≠ cold %+v", trial, res.Counters, cold.Counters)
		}
		if res.Mode != ModeExhaustive || res.Degraded {
			t.Fatalf("trial %d: hit mode %q degraded=%v", trial, res.Mode, res.Degraded)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("trial %d: served plan fails verification: %v", trial, err)
		}
	}

	st := eng.Stats()
	if st.Cache.Hits != 10 || st.Cache.Misses != 1 || st.Cache.Puts != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.Arena.Live != 0 {
		t.Fatalf("engine leaked %d tables", st.Arena.Live)
	}
}

// Served plans are deep copies: mutating a hit's plan must not corrupt the
// cache for later hits.
func TestEngineCacheHitsAreIsolated(t *testing.T) {
	cards, edges := starQuery(6)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(6))
	first, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	ref := first.Cost
	hit1, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	hit1.Plan.Card = -1 // vandalize the served copy
	hit1.Plan.Left, hit1.Plan.Right = nil, nil
	hit2, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2.Cached || hit2.Cost != ref {
		t.Fatal("cache entry was corrupted through a served plan")
	}
	if err := hit2.Verify(); err != nil {
		t.Fatalf("post-vandalism hit: %v", err)
	}
}

// The package-level one-shot API rides the default engine, whose cache is
// disabled: repeated optimizations never report Cached.
func TestDefaultEngineDoesNotCache(t *testing.T) {
	cards, edges := starQuery(5)
	q := permutedQuery(t, cards, edges, identityPerm(5))
	for i := 0; i < 2; i++ {
		res, err := q.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("default engine must not cache")
		}
	}
	if st := Default().Stats(); st.Cache.Capacity != 0 {
		t.Fatalf("default engine has a live cache: %+v", st.Cache)
	}
}

// Distinct option sets must not alias in the cache even for the same query
// shape: left-deep and bushy optima differ, and different cost models score
// differently.
func TestEngineCacheKeySeparatesOptions(t *testing.T) {
	cards, edges := starQuery(7)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(7))
	bushy, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := eng.Optimize(nil, q, WithLeftDeep())
	if err != nil {
		t.Fatal(err)
	}
	if ld.Cached {
		t.Fatal("left-deep run must not hit the bushy entry")
	}
	dnl, err := eng.Optimize(nil, q, WithCostModel("dnl"))
	if err != nil {
		t.Fatal(err)
	}
	if dnl.Cached {
		t.Fatal("dnl-model run must not hit the naive entry")
	}
	_ = bushy
	// Resubmitting each variant now hits its own entry.
	for _, opts := range [][]Option{nil, {WithLeftDeep()}, {WithCostModel("dnl")}} {
		res, err := eng.Optimize(nil, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("variant %v should hit its own entry", opts)
		}
	}
}

// The cache key names the cost model, not how the caller spelled it: the
// default (nil) model and an explicit WithCostModel("naive") are one model
// with one optimum, so they share one entry, and PlanKey agrees.
func TestEngineCacheKeyNamesNaiveModel(t *testing.T) {
	cards, edges := starQuery(7)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(7))
	def, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	named, err := eng.Optimize(nil, q, WithCostModel("naive"))
	if err != nil {
		t.Fatal(err)
	}
	if !named.Cached {
		t.Error(`WithCostModel("naive") missed the default model's entry`)
	}
	if math.Float64bits(named.Cost) != math.Float64bits(def.Cost) {
		t.Errorf("cost %v, want %v", named.Cost, def.Cost)
	}
	if n := eng.Stats().Cache.Entries; n != 1 {
		t.Errorf("cache entries = %d, want 1", n)
	}
	k1, _, err := eng.PlanKey(q)
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := eng.PlanKey(q, WithCostModel("naive"))
	if err != nil {
		t.Fatal(err)
	}
	if string(k1) != string(k2) {
		t.Errorf("PlanKey differs by model spelling:\n%q\n%q", k1, k2)
	}
}

// Degraded ladder outcomes reflect one call's budget and must never be
// stored; a later unconstrained call must re-optimize and cache the true
// optimum.
func TestEngineDoesNotCacheDegradedPlans(t *testing.T) {
	cards, edges := starQuery(12)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(12))
	res, err := eng.Optimize(nil, q, WithTimeout(1*time.Nanosecond), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode == ModeExhaustive {
		t.Skip("machine finished exhaustive search inside 1ns; cannot exercise degradation")
	}
	full, err := eng.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached {
		t.Fatal("degraded plan leaked into the cache")
	}
	if full.Mode != ModeExhaustive {
		t.Fatalf("unconstrained run degraded: %q", full.Mode)
	}
	if full.Cost > res.Cost {
		t.Fatalf("exhaustive optimum %v worse than ladder plan %v", full.Cost, res.Cost)
	}
}

// Ladder runs cut down by a deadline must return every rung's scratch table
// to the arena — the leak this PR's arena plumbing fixes. Run with -race.
func TestEngineLadderLeakOnCancel(t *testing.T) {
	cards, edges := starQuery(13)
	eng := New(EngineOptions{})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		q := permutedQuery(t, cards, edges, rng.Perm(13))
		budget := time.Duration(50+rng.Intn(2000)) * time.Microsecond
		res, err := eng.Optimize(nil, q, WithTimeout(budget), WithDeadlineLadder())
		if err != nil {
			t.Fatalf("trial %d: ladder must always produce a plan: %v", trial, err)
		}
		if verr := res.Verify(); verr != nil {
			t.Fatalf("trial %d (%s): %v", trial, res.Mode, verr)
		}
	}
	// Explicit cancellation aborts with an error — still no leak. A fresh
	// engine, because on the warm one the cache (correctly) serves a hit
	// before the ladder would even start.
	coldEng := New(EngineOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coldEng.Optimize(ctx, permutedQuery(t, cards, edges, identityPerm(13)),
		WithDeadlineLadder()); err == nil {
		t.Fatal("explicitly cancelled ladder should fail")
	}
	for i, e := range []*Engine{eng, coldEng} {
		if st := e.Stats(); st.Arena.Live != 0 {
			t.Fatalf("engine %d: ladder leaked %d tables", i, st.Arena.Live)
		}
	}
}

// TestEngineConcurrentStress hammers one engine from many goroutines with a
// mixed workload of query sizes and repeated shapes: the run must be
// race-clean, cache counters must account for every single request, the
// arena must end with zero live tables, and every response for a given
// shape must agree bitwise with the first response for that shape.
func TestEngineConcurrentStress(t *testing.T) {
	const (
		workers = 8
		perW    = 30
		shapes  = 12
	)
	type shapeSpec struct {
		cards []float64
		edges [][3]float64
	}
	rng := rand.New(rand.NewSource(17))
	specs := make([]shapeSpec, shapes)
	for s := range specs {
		n := 4 + rng.Intn(7) // n ∈ [4, 10]
		if s == 0 {
			n = 14 // one heavyweight shape
		}
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = math.Trunc(rng.Float64()*1e5) + 2
		}
		var edges [][3]float64
		for i := 1; i < n; i++ {
			edges = append(edges, [3]float64{float64(rng.Intn(i)), float64(i),
				math.Exp2(-1 - 20*rng.Float64())})
		}
		specs[s] = shapeSpec{cards, edges}
	}

	eng := New(EngineOptions{})
	var (
		mu       sync.Mutex
		refCost  = make(map[int]float64)
		requests uint64
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perW; i++ {
				s := wrng.Intn(shapes)
				sp := specs[s]
				q := permutedQuery(t, sp.cards, sp.edges, wrng.Perm(len(sp.cards)))
				res, err := eng.Optimize(nil, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				mu.Lock()
				requests++
				if ref, ok := refCost[s]; ok {
					if math.Float64bits(res.Cost) != math.Float64bits(ref) {
						mu.Unlock()
						errs <- fmt.Errorf("shape %d: cost %v diverged from %v", s, res.Cost, ref)
						return
					}
				} else {
					refCost[s] = res.Cost
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.Cache.Hits+st.Cache.Misses != requests {
		t.Fatalf("hits %d + misses %d ≠ requests %d", st.Cache.Hits, st.Cache.Misses, requests)
	}
	if st.Cache.Puts != st.Cache.Misses {
		t.Fatalf("every miss must store exactly once: %+v", st.Cache)
	}
	// Shapes with non-Exact canonicalization could miss more than once under
	// permutation, but every shape must have been stored at least once and at
	// most... once per distinct fingerprint. At minimum: misses ≥ shapes.
	if st.Cache.Misses < shapes {
		t.Fatalf("only %d misses for %d distinct shapes", st.Cache.Misses, shapes)
	}
	if st.Arena.Live != 0 {
		t.Fatalf("stress leaked %d tables", st.Arena.Live)
	}
	// Arena accounting must balance to the unit: every checkout returned, and
	// the Live gauge is definitionally their difference.
	if st.Arena.Gets != st.Arena.Puts {
		t.Fatalf("arena gets %d ≠ puts %d after quiescence", st.Arena.Gets, st.Arena.Puts)
	}
	if st.Arena.Gets < st.Cache.Misses {
		t.Fatalf("arena gets %d < cache misses %d: every cold run fills a table", st.Arena.Gets, st.Cache.Misses)
	}
	// With hundreds of same-sized cold runs the pool must actually recycle.
	if st.Arena.Reuses == 0 {
		t.Fatal("arena never reused a pooled table across the stress run")
	}
	// Cache footprint gauges must be consistent with the stored entries.
	if st.Cache.Entries <= 0 || st.Cache.Bytes == 0 {
		t.Fatalf("cache footprint degenerate after %d puts: %+v", st.Cache.Puts, st.Cache)
	}
	if st.Cache.Evictions != 0 && st.Cache.Bytes > st.Cache.Capacity {
		t.Fatalf("cache over capacity despite evictions: %+v", st.Cache)
	}
}

// WithMemoryBudget refuses a cold run whose table exceeds the budget, but a
// cache hit allocates no table and is served anyway.
func TestEngineCacheHitExemptFromMemoryBudget(t *testing.T) {
	cards, edges := starQuery(12)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(12))
	if _, err := eng.Optimize(nil, q); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize(nil, q, WithMemoryBudget(1024))
	if err != nil {
		t.Fatalf("hit should be exempt from the memory budget: %v", err)
	}
	if !res.Cached {
		t.Fatal("expected a cache hit")
	}
	// A fresh engine must still refuse the cold run under the same budget.
	cold := New(EngineOptions{})
	if _, err := cold.Optimize(nil, q, WithMemoryBudget(1024)); err == nil {
		t.Fatal("cold run should be refused by the memory budget")
	}
}

func BenchmarkEngineCacheHit(b *testing.B) {
	cards, edges := starQuery(12)
	eng := New(EngineOptions{})
	q := permutedQuery(b, cards, edges, identityPerm(12))
	if _, err := eng.Optimize(nil, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Optimize(nil, q)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("benchmark must measure hits")
		}
	}
}

func BenchmarkEngineCacheCold(b *testing.B) {
	cards, edges := starQuery(12)
	eng := New(EngineOptions{DisableCache: true})
	q := permutedQuery(b, cards, edges, identityPerm(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Optimize(nil, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Repeated Join declarations on one relation pair are a conjunction: they
// fold into a single multiplicative selectivity at build time, bitwise
// independent of declaration order, and equivalent to declaring the product
// directly.
func TestDuplicateJoinFolding(t *testing.T) {
	build := func(sels ...float64) *Query {
		q := NewQuery()
		q.MustAddRelation("x", 1000)
		q.MustAddRelation("y", 2000)
		q.MustAddRelation("z", 500)
		for _, s := range sels {
			q.MustJoin("x", "y", s)
		}
		q.MustJoin("y", "z", 0.001)
		return q
	}
	a, err := build(0.5, 0.02, 0.1).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(0.1, 0.5, 0.02).Optimize() // same factors, shuffled
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(0.5 * 0.02 * 0.1).Optimize() // pre-folded product
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*Result{"shuffled": b, "prefolded": c} {
		if math.Float64bits(a.Cost) != math.Float64bits(other.Cost) {
			t.Fatalf("%s: cost %v ≠ %v", name, other.Cost, a.Cost)
		}
		if math.Float64bits(a.Cardinality) != math.Float64bits(other.Cardinality) {
			t.Fatalf("%s: cardinality diverged", name)
		}
		if !a.Plan.Equal(other.Plan) {
			t.Fatalf("%s: plan diverged", name)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	// Mixed orientations fold too: x⋈y and y⋈x address the same pair.
	q := NewQuery()
	q.MustAddRelation("x", 1000)
	q.MustAddRelation("y", 2000)
	q.MustAddRelation("z", 500)
	q.MustJoin("x", "y", 0.5)
	q.MustJoin("y", "x", 0.02)
	q.MustJoin("x", "y", 0.1)
	q.MustJoin("y", "z", 0.001)
	d, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(d.Cost) != math.Float64bits(a.Cost) {
		t.Fatal("orientation-mixed duplicates folded differently")
	}
	// An invalid selectivity among the duplicates is still rejected.
	bad := NewQuery()
	bad.MustAddRelation("x", 10)
	bad.MustAddRelation("y", 20)
	bad.MustJoin("x", "y", 0.5)
	bad.MustJoin("x", "y", 1.5)
	if _, err := bad.Optimize(); err == nil {
		t.Fatal("out-of-range duplicate selectivity accepted")
	}
}

// The serve hot path's allocation budget, asserted: once an entry is cached,
// Optimize on the same engine must perform O(1) small allocations — the
// relabeled plan slab, the Result, and nothing proportional to n beyond them
// (3 allocs/op; the bound leaves a slack of 2). The pooled Canonicalizer
// scratch, the reused cache-key buffer and the byte-keyed cache lookup are
// what keep WL refinement and the fingerprint off the per-hit heap.
func TestEngineCacheHitAllocs(t *testing.T) {
	const n = 12
	cards, edges := starQuery(n)
	eng := New(EngineOptions{})
	q := permutedQuery(t, cards, edges, identityPerm(n))
	if _, err := eng.Optimize(nil, q); err != nil {
		t.Fatal(err)
	}
	// 1000 runs, not 100: under -race the average includes the scratch
	// rebuilds that sync.Pool's random drops cause (see hitAllocsLimit), and
	// a 100-run average of them is noisy enough to cross the bound.
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := eng.Optimize(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("must measure the hit path")
		}
	})
	if limit := hitAllocsLimit(); allocs > limit {
		t.Errorf("cache hit allocated %v times per op, want ≤ %v", allocs, limit)
	}
}

// hitAllocsLimit is the allocs/op bound for a cache hit: 3 measured plus a
// slack of 2. Under -race, sync.Pool.Put drops a random quarter of the items
// it is given, so about one hit in four rebuilds the engine's pooled serve
// scratch; 1000-run averages read 7–9 there, and the bound is 10.
func hitAllocsLimit() float64 {
	if raceEnabled {
		return 10
	}
	return 5
}

// The cold fill's allocation budget, asserted: with the plan cache off and a
// warm arena, a full n = 12 optimization takes its DP table from the arena
// and returns it there, so it allocates only the per-call plan, result and
// bookkeeping (28 allocs/op; the bound leaves a slack of 2). A table that is
// not recycled costs its column allocations on every call and breaks the
// bound. The cache-disabled path touches no sync.Pool, so the count is the
// same under -race.
func TestEngineColdFillAllocs(t *testing.T) {
	const n = 12
	cards, edges := starQuery(n)
	eng := New(EngineOptions{DisableCache: true})
	q := permutedQuery(t, cards, edges, identityPerm(n))
	if _, err := eng.Optimize(nil, q); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Optimize(nil, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Errorf("cold fill allocated %v times per op, want ≤ 30", allocs)
	}
}

// Eight goroutines hammer one Engine — and therefore one sync.Pool of
// Canonicalizer scratch — with permuted resubmissions of the same logical
// query. Every hit must be bit-identical to the cold reference: a pooled
// scratch object leaking state between borrowers would surface here as a
// diverging fingerprint (a spurious miss) or a corrupted relabeling (Verify
// failure). Run under -race by the Makefile's stress target.
func TestEngineCanonicalizerStress(t *testing.T) {
	const n, workers, reps = 10, 8, 40
	cards, edges := starQuery(n)
	eng := New(EngineOptions{})
	cold, err := eng.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(n)))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*Query, 64)
	rng := rand.New(rand.NewSource(17))
	for i := range queries {
		queries[i] = permutedQuery(t, cards, edges, rng.Perm(n))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				res, err := eng.Optimize(nil, queries[(w*reps+rep)%len(queries)])
				if err != nil {
					errs <- err
					return
				}
				if !res.Cached {
					errs <- fmt.Errorf("worker %d rep %d: fingerprint diverged (cache miss)", w, rep)
					return
				}
				if math.Float64bits(res.Cost) != math.Float64bits(cold.Cost) {
					errs <- fmt.Errorf("worker %d rep %d: cost %v ≠ %v", w, rep, res.Cost, cold.Cost)
					return
				}
				if err := res.Verify(); err != nil {
					errs <- fmt.Errorf("worker %d rep %d: served plan invalid: %v", w, rep, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := eng.Stats(); st.Cache.Misses != 1 {
		t.Errorf("expected exactly one miss (the cold fill), got %+v", st.Cache)
	}
}

// goldenShape is one query of TestEngineCacheKeyGolden: relations r0…rn−1
// with the given cardinalities, joined by (a, b, selectivity) triples.
type goldenShape struct {
	name      string
	cards     []float64
	joins     [][3]float64
	connected bool
}

// goldenShapes returns the n-relation queries whose plan keys the golden
// test pins: every topology class the canonicalizer and the key distinguish,
// including tied cardinalities (individualization) and a pair joined twice
// (selectivity folding).
func goldenShapes(n int) []goldenShape {
	distinct := make([]float64, n)
	for i := range distinct {
		distinct[i] = float64(100*(i+1)*(i+3) + 7*i)
	}
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = 5000
	}
	sel := func(i int) float64 { return 1 / float64(50*(i+2)) }
	var chain, star, clique, split, twice [][3]float64
	for i := 1; i < n; i++ {
		chain = append(chain, [3]float64{float64(i - 1), float64(i), sel(i)})
		star = append(star, [3]float64{0, float64(i), sel(i)})
		for j := 0; j < i; j++ {
			clique = append(clique, [3]float64{float64(j), float64(i), 0.01})
		}
		if i != n/2 {
			split = append(split, [3]float64{float64(i - 1), float64(i), sel(i)})
		}
	}
	twice = append(append(twice, chain...), [3]float64{1, 0, 0.3})
	return []goldenShape{
		{"chain", distinct, chain, true},
		{"star", distinct, star, true},
		{"clique", equal, clique, true},
		{"components", distinct, split, false},
		{"product", distinct, nil, false},
		{"twice", distinct, twice, true},
	}
}

// The plan-cache key and the canonical fingerprint are a persistent format:
// snapshots written by one build are restored by the next, and cluster peers
// of different builds route and fill on them. The digest below covers their
// bytes for a fixed set of queries under every option that enters the key. A
// change that needs a new digest turns every existing snapshot cold and
// splits a mixed-version cluster.
func TestEngineCacheKeyGolden(t *testing.T) {
	optionSets := []struct {
		name string
		opts []Option
		ccp  bool
	}{
		{"default", nil, false},
		{"sortmerge", []Option{WithCostModel("sortmerge")}, false},
		{"dnl", []Option{WithCostModel("dnl")}, false},
		{"hash", []Option{WithCostModel("hash")}, false},
		{"min", []Option{WithCostModel("min(sortmerge,dnl)")}, false},
		{"leftdeep", []Option{WithLeftDeep()}, false},
		{"auto", []Option{WithEnumerator(EnumeratorAuto)}, false},
		{"ccp", []Option{WithEnumerator(EnumeratorCCP)}, true},
	}
	eng := New(EngineOptions{})
	h := sha256.New()
	for _, n := range []int{3, 8, 12} {
		for _, s := range goldenShapes(n) {
			q := permutedQuery(t, s.cards, s.joins, identityPerm(n))
			for _, o := range optionSets {
				if o.ccp && !s.connected {
					continue
				}
				key, fp, err := eng.PlanKey(q, o.opts...)
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", s.name, n, o.name, err)
				}
				fmt.Fprintf(h, "%s/%d/%s\n%x\n%x\n", s.name, n, o.name, key, fp)
			}
		}
	}
	const want = "184ea2898bafa78d85a557e7c749b8a9bad8abb7b1fd2a7e0a79a47e22e6d878"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("plan-key digest = %s, want %s", got, want)
	}
}
