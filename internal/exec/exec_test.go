package exec

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/testutil"
)

// chainInstance synthesizes a small chain query A—B—…—n with the given
// cardinality per relation and selectivity per edge, returning instance,
// cards, and graph.
func chainInstance(t *testing.T, n int, card float64, sel float64) (*engine.Instance, []float64, *joingraph.Graph) {
	t.Helper()
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = card
	}
	g := joingraph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, sel); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := engine.Synthesize(cards, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inst, cards, g
}

func optimalPlan(t *testing.T, cards []float64, g *joingraph.Graph) *plan.Node {
	t.Helper()
	res, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

var allAlgorithms = []Algorithm{engine.HashJoinAlg, engine.SortMergeAlg, engine.NestedLoopsAlg}

// TestBatchSizeInvariance: the batch size is an execution knob, never a
// semantic one.
func TestBatchSizeInvariance(t *testing.T) {
	inst, cards, g := chainInstance(t, 5, 200, 0.02)
	p := optimalPlan(t, cards, g)
	want, err := Count(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 3, 7, 64, 100000} {
		for _, alg := range allAlgorithms {
			got, err := Count(inst, p, Options{BatchSize: bs, Algorithm: alg})
			if err != nil {
				t.Fatalf("batch %d %v: %v", bs, alg, err)
			}
			if got != want {
				t.Fatalf("batch %d %v: got %d rows, want %d", bs, alg, got, want)
			}
		}
	}
}

// TestCartesianProduct executes a predicate-free plan (two disconnected
// relations, which therefore carry no columns at all) and expects the full
// cross product under every algorithm.
func TestCartesianProduct(t *testing.T) {
	cards := []float64{30, 40}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, rel := range inst.Relations {
		if len(rel.Cols) != 0 {
			t.Fatalf("R%d carries columns %v without any predicate", i, rel.Cols)
		}
	}
	p := &plan.Node{
		Set:  bitset.Of(0, 1),
		Card: 1200,
		Left: plan.Leaf(0, 30), Right: plan.Leaf(1, 40),
	}
	for _, alg := range allAlgorithms {
		got, err := Count(inst, p, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1200 {
			t.Fatalf("%v: Cartesian product produced %d rows, want 1200", alg, got)
		}
	}
}

// TestHashJoinSecondKey: on a triangle R0—R1—R2 planned as (R0 ⨝ R1) ⨝ R2,
// the top join applies two predicates. Keys are drawn from a domain of 5 and
// about half get 2^40 added. A key's hash slot depends only on its low bits,
// so the table chains rows that agree on one key and differ from the probe
// row in the other key's high bit only: a probe that checked one key would
// count them. The hash join must count only pairs agreeing on both keys,
// whichever side it builds on and however it batches.
func TestHashJoinSecondKey(t *testing.T) {
	const high = 1 << 40
	for _, c2 := range []float64{40, 400} { // R2 builds, then (R0 ⨝ R1) builds
		cards := []float64{30, 30, c2}
		g := joingraph.New(3)
		g.MustAddEdge(0, 1, 0.2)
		g.MustAddEdge(0, 2, 0.2)
		g.MustAddEdge(1, 2, 0.2)
		inst, err := engine.Synthesize(cards, g, 17)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c2)))
		key := func(rel, a, b int) []int64 {
			vals := inst.Relations[rel].Cols[engine.JoinColumn(a, b)]
			for i := range vals {
				vals[i] += high * rng.Int63n(2)
			}
			return vals
		}
		k01a, k01b := key(0, 0, 1), key(1, 0, 1)
		k02a, k02b := key(0, 0, 2), key(2, 0, 2)
		k12a, k12b := key(1, 1, 2), key(2, 1, 2)
		// Brute force over all triples, also counting the near misses: pairs
		// agreeing on one top-join key and on the other's low bits only.
		var want, miss02, miss12 int64
		for i := range k01a {
			for j := range k01b {
				if k01a[i] != k01b[j] {
					continue
				}
				for k := range k02b {
					m02, m12 := k02a[i] == k02b[k], k12a[j] == k12b[k]
					low02, low12 := k02a[i]%high == k02b[k]%high, k12a[j]%high == k12b[k]%high
					switch {
					case m02 && m12:
						want++
					case m02 && low12:
						miss12++
					case m12 && low02:
						miss02++
					}
				}
			}
		}
		if miss02 == 0 || miss12 == 0 {
			t.Fatalf("R2=%v: degenerate case: %d rows, near misses %d on (0,2), %d on (1,2)", c2, want, miss02, miss12)
		}
		p := &plan.Node{
			Set:   bitset.Of(0, 1, 2),
			Left:  &plan.Node{Set: bitset.Of(0, 1), Left: plan.Leaf(0, cards[0]), Right: plan.Leaf(1, cards[1])},
			Right: plan.Leaf(2, cards[2]),
		}
		for _, bs := range []int{0, 7} {
			got, err := Count(inst, p, Options{Algorithm: engine.HashJoinAlg, BatchSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("R2=%v batch %d: hash join counted %d rows, want %d", c2, bs, got, want)
			}
		}
	}
}

// TestRowLimit: exceeding MaxRows must surface engine.ErrRowLimit, with a
// strictly-greater threshold.
func TestRowLimit(t *testing.T) {
	cards := []float64{30, 40}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:  bitset.Of(0, 1),
		Card: 1200,
		Left: plan.Leaf(0, 30), Right: plan.Leaf(1, 40),
	}
	if _, err := Count(inst, p, Options{MaxRows: 1199}); !errors.Is(err, engine.ErrRowLimit) {
		t.Fatalf("MaxRows 1199: got %v, want ErrRowLimit", err)
	}
	if got, err := Count(inst, p, Options{MaxRows: 1200}); err != nil || got != 1200 {
		t.Fatalf("MaxRows 1200: got %d, %v; want 1200, nil", got, err)
	}
}

// TestStats checks the instrumentation: join count, batch count, the
// intermediate-row sum excluding the final result, and the CollectOps
// breakdown.
func TestStats(t *testing.T) {
	inst, cards, g := chainInstance(t, 4, 100, 0.01)
	p := optimalPlan(t, cards, g)
	res, err := Run(inst, p, Options{CollectOps: true, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Joins != 3 {
		t.Fatalf("Joins = %d, want 3", res.Stats.Joins)
	}
	if res.Stats.Rows != res.Rows {
		t.Fatalf("Stats.Rows = %d, Result.Rows = %d", res.Stats.Rows, res.Rows)
	}
	if res.Stats.Batches == 0 {
		t.Fatal("Batches = 0, want > 0")
	}
	if res.Stats.IntermediateRows < 0 {
		t.Fatalf("IntermediateRows = %d, want >= 0", res.Stats.IntermediateRows)
	}
	// 4 scans + 3 joins.
	if len(res.Stats.Ops) != 7 {
		t.Fatalf("len(Ops) = %d, want 7", len(res.Stats.Ops))
	}
	// Each operator reports its own batches, scans none, so they sum to the
	// run's total.
	scans, batches := 0, int64(0)
	for _, op := range res.Stats.Ops {
		if op.Kind == "scan" {
			scans++
			if op.Rows != 100 {
				t.Fatalf("scan of %v produced %d rows, want 100", op.Set, op.Rows)
			}
			if op.Batches != 0 {
				t.Fatalf("scan of %v reports %d batches, want 0", op.Set, op.Batches)
			}
		}
		batches += op.Batches
	}
	if scans != 4 {
		t.Fatalf("scans = %d, want 4", scans)
	}
	if batches != res.Stats.Batches {
		t.Fatalf("operators sum to %d batches, Stats.Batches = %d", batches, res.Stats.Batches)
	}
}

// TestAdaptiveStaticEquivalence: with no re-optimizer, the adaptive driver's
// bottom-up schedule must produce exactly Run's result.
func TestAdaptiveStaticEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		q := testutil.RandomQuery(rng, 5)
		cards := make([]float64, len(q.Cards))
		for i := range cards {
			cards[i] = float64(rng.Intn(30))
		}
		inst, err := engine.SynthesizeRand(cards, q.Graph, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := optimalPlan(t, cards, q.Graph)
		want, err := Run(inst, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunAdaptive(inst, p, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows {
			t.Fatalf("trial %d: adaptive %d rows, static %d", trial, got.Rows, want.Rows)
		}
		if len(got.Events) != 0 {
			t.Fatalf("trial %d: %d events without a re-optimizer", trial, len(got.Events))
		}
	}
}

// skewedSetup builds the misestimation scenario: a 5-chain whose first edge
// the optimizer believes is vastly more selective than it really is — the
// lie makes joining (0,1) first look free, so the plan leads with it and
// execution observes a 10^5× blowup at the very first join. The returned
// instance holds the true data; the plan is optimized under the lie.
func skewedSetup(t *testing.T) (*engine.Instance, *plan.Node, []float64, *joingraph.Graph) {
	t.Helper()
	n := 5
	cards := []float64{2000, 2000, 600, 600, 600}
	const lied, actual = 1.0 / 4_000_000, 1.0 / 40
	mkGraph := func(firstSel float64) *joingraph.Graph {
		g := joingraph.New(n)
		sels := []float64{firstSel, 1.0 / 600, 1.0 / 600, 1.0 / 600}
		for i := 0; i+1 < n; i++ {
			if err := g.AddEdge(i, i+1, sels[i]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	truth, lie := mkGraph(actual), mkGraph(lied)
	inst, err := engine.Synthesize(cards, truth, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := optimalPlan(t, cards, lie) // planned under the misestimate
	return inst, p, cards, truth
}

// greedyReopt is the test-side ReoptFunc: plan the group query greedily.
func greedyReopt(t *testing.T, calls *int) ReoptFunc {
	return func(gq GroupQuery) (*plan.Node, error) {
		*calls++
		g := joingraph.New(len(gq.Groups))
		for _, e := range gq.Edges {
			if err := g.AddEdge(e.A, e.B, e.Selectivity); err != nil {
				return nil, err
			}
		}
		res, err := baseline.GreedyLeftDeep(gq.Cards, g, cost.Naive{})
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
}

// TestAdaptiveReopt injects skew, expects the adaptive driver to observe the
// first join's blowup, re-plan the remainder, produce the same final row
// count as the static plan, and shrink total intermediate rows.
func TestAdaptiveReopt(t *testing.T) {
	inst, p, _, _ := skewedSetup(t)
	static, err := Run(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	adaptive, err := RunAdaptive(inst, p, Options{}, greedyReopt(t, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("re-optimizer never called despite injected skew")
	}
	replanned := false
	for _, ev := range adaptive.Events {
		if ev.Replanned {
			replanned = true
			if ev.Deviation <= DefaultReoptRatio {
				t.Fatalf("replanned at deviation %v, below the %v trigger", ev.Deviation, DefaultReoptRatio)
			}
		}
	}
	if !replanned {
		t.Fatalf("no replanned event; events: %+v", adaptive.Events)
	}
	if adaptive.Rows != static.Rows {
		t.Fatalf("adaptive %d rows, static %d — replanning changed the result", adaptive.Rows, static.Rows)
	}
	if adaptive.Stats.IntermediateRows >= static.Stats.IntermediateRows {
		t.Fatalf("adaptive intermediate rows %d, static %d — replanning did not help",
			adaptive.Stats.IntermediateRows, static.Stats.IntermediateRows)
	}
	if adaptive.Plan.Set != p.Set {
		t.Fatalf("executed plan covers %v, want %v", adaptive.Plan.Set, p.Set)
	}
	if err := adaptive.Plan.Validate(); err != nil {
		t.Fatalf("spliced plan invalid: %v", err)
	}
}

// TestAdaptiveReoptErrorNonFatal: a failing re-optimizer must not abort
// execution.
func TestAdaptiveReoptErrorNonFatal(t *testing.T) {
	inst, p, _, _ := skewedSetup(t)
	static, err := Run(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(GroupQuery) (*plan.Node, error) { return nil, errors.New("reopt backend down") }
	res, err := RunAdaptive(inst, p, Options{}, boom)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != static.Rows {
		t.Fatalf("got %d rows, want %d", res.Rows, static.Rows)
	}
	found := false
	for _, ev := range res.Events {
		if !ev.Replanned && ev.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a failed reopt event, got %+v", res.Events)
	}
}

// TestNilAndInvalidInputs covers the error paths.
func TestNilAndInvalidInputs(t *testing.T) {
	inst, cards, g := chainInstance(t, 3, 10, 0.1)
	if _, err := Run(nil, optimalPlan(t, cards, g), Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := Run(inst, nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	// A plan referencing a relation the instance lacks.
	bad := plan.Leaf(7, 10)
	if _, err := Run(inst, bad, Options{}); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
	// A join node missing a child.
	oneChild := &plan.Node{Set: bitset.Of(0, 1), Left: plan.Leaf(0, 10)}
	if _, err := Run(inst, oneChild, Options{}); err == nil {
		t.Fatal("join with one child accepted")
	}
}

// kfkShape is a key–foreign-key chain R0—R1—…—Rn−1 with 8k–12k rows per
// relation and every edge's selectivity 1/max(card), so no join result
// outgrows its inputs.
func kfkShape(n int) ([]float64, *joingraph.Graph) {
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = float64(8000 + 1000*(i%5))
	}
	g := joingraph.New(n)
	for j := 1; j < n; j++ {
		g.MustAddEdge(j-1, j, 1/max(cards[j-1], cards[j]))
	}
	return cards, g
}

// kfkChain synthesizes kfkShape(n) and plans it.
func kfkChain(t *testing.T, n int) (*engine.Instance, *plan.Node) {
	t.Helper()
	cards, g := kfkShape(n)
	inst, err := engine.Synthesize(cards, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inst, optimalPlan(t, cards, g)
}

// wantLive is the live-column rule restated from the graph: the join key of
// relation a for every edge (a, b) with a in s and b in the plan outside s.
func wantLive(g *joingraph.Graph, all, s bitset.Set) map[colID]bool {
	want := map[colID]bool{}
	if g == nil {
		return want
	}
	for _, e := range g.Edges() {
		col := engine.JoinColumn(e.A, e.B)
		for _, end := range [][2]int{{e.A, e.B}, {e.B, e.A}} {
			if s.Has(end[0]) && all.Has(end[1]) && !s.Has(end[1]) {
				want[colID{end[0], col}] = true
			}
		}
	}
	return want
}

// checkLiveColumns runs fn with every scan and join output observed and
// asserts each carries exactly its set's live columns, each column as long
// as the table, and that the root (the set all) carries none.
func checkLiveColumns(t *testing.T, g *joingraph.Graph, all bitset.Set, fn func()) {
	t.Helper()
	outputs, sawRoot := 0, false
	testHookOutput = func(s bitset.Set, tb *table) {
		outputs++
		want := wantLive(g, all, s)
		if len(tb.ids) != len(want) || len(tb.cols) != len(want) {
			t.Errorf("output %v carries %v, want %v", s, tb.ids, want)
			return
		}
		for i, id := range tb.ids {
			if !want[id] {
				t.Errorf("output %v carries dead column %v; live: %v", s, id, want)
			}
			if len(tb.cols[i]) != tb.rows {
				t.Errorf("output %v column %v has %d values for %d rows", s, id, len(tb.cols[i]), tb.rows)
			}
		}
		if s == all {
			sawRoot = true
		}
	}
	defer func() { testHookOutput = nil }()
	fn()
	if outputs == 0 || !sawRoot {
		t.Fatalf("observed %d outputs, root seen %v", outputs, sawRoot)
	}
}

// TestLiveColumns: every scan and join output carries exactly the join keys
// of predicates still to apply above it — under Run, Count and an adaptive
// run that splices in a new plan — and the root carries no columns.
func TestLiveColumns(t *testing.T) {
	inst, cards, g := chainInstance(t, 6, 100, 0.02)
	p := optimalPlan(t, cards, g)
	for _, alg := range allAlgorithms {
		checkLiveColumns(t, g, p.Set, func() {
			if _, err := Run(inst, p, Options{Algorithm: alg}); err != nil {
				t.Fatal(err)
			}
		})
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		q := testutil.RandomQuery(rng, 6)
		cards := make([]float64, len(q.Cards))
		for i := range cards {
			cards[i] = float64(rng.Intn(30))
		}
		inst, err := engine.SynthesizeRand(cards, q.Graph, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := baseline.RandomPlan(cards, q.Graph, cost.Naive{}, rng)
		checkLiveColumns(t, q.Graph, p.Set, func() {
			if _, err := Count(inst, p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}

	inst, p, _, truth := skewedSetup(t)
	calls := 0
	var res *Result
	checkLiveColumns(t, truth, p.Set, func() {
		var err error
		res, err = RunAdaptive(inst, p, Options{}, greedyReopt(t, &calls))
		if err != nil {
			t.Fatal(err)
		}
	})
	replanned := false
	for _, ev := range res.Events {
		replanned = replanned || ev.Replanned
	}
	if !replanned {
		t.Fatalf("adaptive run never replanned; events %+v", res.Events)
	}
}

// allocBytes returns the bytes one call of fn allocates, averaged over runs
// calls after a warm-up call.
func allocBytes(t *testing.T, runs int, fn func() error) (bytes, objects uint64) {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestSynthesizeAllocBytes gates the bytes one engine.Synthesize allocates
// for the 10-relation key–foreign-key chain: its join keys, about 1.4 MB.
// A row-id column on every relation took another 0.8 MB (2.3 MB in all).
func TestSynthesizeAllocBytes(t *testing.T) {
	cards, g := kfkShape(10)
	const limit = 1_600_000
	got, objects := allocBytes(t, 5, func() error {
		_, err := engine.Synthesize(cards, g, 42)
		return err
	})
	if got > limit {
		t.Fatalf("Synthesize allocates %d bytes per call, limit %d", got, limit)
	}
	t.Logf("Synthesize allocates %d bytes and %d objects per call", got, objects)
}

// TestRunAllocBytes gates the bytes one Run allocates on a fixed 10-relation
// key–foreign-key chain. Gathering every column of every relation below each
// join took 8.8 MB here; carrying only live join keys takes 1.2 MB.
func TestRunAllocBytes(t *testing.T) {
	inst, p := kfkChain(t, 10)
	const limit = 2_500_000
	got, objects := allocBytes(t, 5, func() error {
		_, err := Run(inst, p, Options{})
		return err
	})
	if got > limit {
		t.Fatalf("Run allocates %d bytes per call, limit %d", got, limit)
	}
	t.Logf("Run allocates %d bytes and %d objects per call", got, objects)
}
