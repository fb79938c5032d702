package check_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/testutil"
)

// chainQuery is a small fixed query with a positive optimal cost, used by
// the mutant tests that need a deterministic success.
func chainQuery() core.Query {
	cards := []float64{100, 200, 300, 400}
	g := joingraph.New(4)
	g.MustAddEdge(0, 1, 0.01)
	g.MustAddEdge(1, 2, 0.005)
	g.MustAddEdge(2, 3, 0.0025)
	return core.Query{Cards: cards, Graph: g}
}

func optimize(t *testing.T, q core.Query, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Optimize(q, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return res
}

// tampering wraps the real optimizer and lets a mutant modify successful
// results; it counts invocations so tests can assert the mutant actually ran.
func tampering(calls *int, mutate func(core.Query, core.Options, *core.Result)) check.Optimizer {
	return func(q core.Query, opts core.Options) (*core.Result, error) {
		*calls++
		res, err := core.Optimize(q, opts)
		if err == nil {
			mutate(q, opts, res)
		}
		return res, err
	}
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verifier accepted a broken mutant, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

// TestFullOnRandomQueries sweeps the whole invariant lattice over random
// queries from every generator mode — the unit-test form of FuzzOptimize.
func TestFullOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c check.Checker
	for i := 0; i < 60; i++ {
		q := testutil.RandomQuery(rng, 7)
		m := testutil.RandomModel(rng)
		leftDeep := rng.Intn(4) == 0
		if err := c.Full(q, m, leftDeep, rng.Int63()); err != nil {
			t.Fatalf("query %d (n=%d, model=%s, leftDeep=%v): %v",
				i, len(q.Cards), m.Name(), leftDeep, err)
		}
	}
}

// TestFullOnDecodedBytes drives Full through the byte decoder, mirroring the
// fuzz target exactly on a fixed set of inputs.
func TestFullOnDecodedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c check.Checker
	for i := 0; i < 40; i++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		fq := testutil.QueryFromBytes(data)
		if err := c.Full(fq.Query, fq.Model, fq.LeftDeep, fq.Aux); err != nil {
			t.Fatalf("input % x: %v", data, err)
		}
	}
}

// TestOraclesAgreeWithEachOther differentially tests the two independent
// oracles against each other — if they agree, a bug must be common to two
// structurally different implementations to slip through.
func TestOraclesAgreeWithEachOther(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		q := testutil.RandomQuery(rng, 6)
		m := testutil.RandomModel(rng)
		rec, err := baseline.RecursiveMemo(q.Cards, q.Graph, m)
		if err != nil {
			t.Fatalf("RecursiveMemo: %v", err)
		}
		brute, err := baseline.BruteForce(q.Cards, q.Graph, m)
		if err != nil {
			t.Fatalf("BruteForce: %v", err)
		}
		if rec.Cost != brute.Cost && math.Abs(rec.Cost-brute.Cost) > 1e-9*brute.Cost {
			t.Fatalf("query %d: RecursiveMemo cost %v, BruteForce cost %v", i, rec.Cost, brute.Cost)
		}
	}
}

func TestWellFormed(t *testing.T) {
	q := chainQuery()
	res := optimize(t, q, core.Options{})
	if err := check.WellFormed(4, res.Plan); err != nil {
		t.Fatalf("real plan rejected: %v", err)
	}

	// Mutant: a leaf relabeled so one relation appears twice and another never.
	dup := res.Plan.Clone()
	var first *plan.Node
	dup.Walk(func(n *plan.Node) {
		if n.IsLeaf() && first == nil {
			first = n
		}
	})
	other := 0
	if first.Rel == 0 {
		other = 1
	}
	first.Rel = other
	first.Set = bitset.Single(other)
	wantErr(t, check.WellFormed(4, dup), "check:")

	// Mutant: root missing a relation.
	wantErr(t, check.WellFormed(5, res.Plan), "root covers")

	wantErr(t, check.WellFormed(4, nil), "nil plan")
}

func TestCostConsistent(t *testing.T) {
	q := chainQuery()
	m := cost.NewDiskNestedLoops()
	res := optimize(t, q, core.Options{Model: m})
	if err := check.CostConsistent(q, m, res); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}

	// Mutant: inflated reported cost.
	broken := *res
	broken.Cost *= 1.5
	wantErr(t, check.CostConsistent(q, m, &broken), "Result.Cost")

	// Mutant: a node's cardinality drifts from the reference estimate.
	tampered := *res
	tampered.Plan = res.Plan.Clone()
	tampered.Plan.Left.Card *= 3
	wantErr(t, check.CostConsistent(q, m, &tampered), "cardinality")

	// Mutant: an internal cost that does not add up.
	recosted := *res
	recosted.Plan = res.Plan.Clone()
	recosted.Plan.Cost /= 2
	recosted.Cost = recosted.Plan.Cost
	wantErr(t, check.CostConsistent(q, m, &recosted), "recomputation")

	// Wrong model: the recorded costs cannot be reproduced.
	wantErr(t, check.CostConsistent(q, cost.Naive{}, res), "")
}

func TestCountersExact(t *testing.T) {
	q := chainQuery()
	res := optimize(t, q, core.Options{})
	if err := check.CountersExact(4, false, res.Counters); err != nil {
		t.Fatalf("real counters rejected: %v", err)
	}

	broken := res.Counters
	broken.LoopIters++
	wantErr(t, check.CountersExact(4, false, broken), "LoopIters")

	broken = res.Counters
	broken.KpEvals--
	wantErr(t, check.CountersExact(4, false, broken), "KpEvals")

	// Multi-pass runs are vacuously accepted — the closed forms only cover a
	// clean single pass.
	multi := res.Counters
	multi.Passes = 2
	multi.LoopIters = 1
	if err := check.CountersExact(4, false, multi); err != nil {
		t.Fatalf("multi-pass counters should not be judged: %v", err)
	}

	ld := optimize(t, q, core.Options{LeftDeep: true})
	if err := check.CountersExact(4, true, ld.Counters); err != nil {
		t.Fatalf("real left-deep counters rejected: %v", err)
	}
	brokenLD := ld.Counters
	brokenLD.LoopIters += 2
	wantErr(t, check.CountersExact(4, true, brokenLD), "LoopIters")
}

func TestOracleAgreement(t *testing.T) {
	q := chainQuery()
	m := cost.SortMerge{}
	limit := math.MaxFloat32
	res := optimize(t, q, core.Options{Model: m})
	if err := check.OracleAgreement(q, m, false, limit, res, nil); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}
	if err := check.BruteForceAgreement(q, m, limit, res, nil); err != nil {
		t.Fatalf("real result rejected by brute force: %v", err)
	}

	// Mutant: suboptimal cost.
	sub := *res
	sub.Cost *= 2
	wantErr(t, check.OracleAgreement(q, m, false, limit, &sub, nil), "suboptimal")
	wantErr(t, check.BruteForceAgreement(q, m, limit, &sub, nil), "suboptimal")

	// Mutant: impossibly good cost.
	magic := *res
	magic.Cost /= 2
	wantErr(t, check.OracleAgreement(q, m, false, limit, &magic, nil), "impossibly better")

	// Mutant: spurious ErrNoPlan while a cheap plan exists.
	wantErr(t, check.OracleAgreement(q, m, false, limit, nil, core.ErrNoPlan), "no plan under limit")

	// Mutant: claims success on a query whose true optimum overflows.
	huge := core.Query{Cards: []float64{1e30, 1e30, 1e30}}
	fake := &core.Result{Cost: 42}
	wantErr(t, check.OracleAgreement(huge, cost.Naive{}, false, limit, fake, nil), "exceeds the limit")

	// And the genuine ErrNoPlan on the same query is accepted.
	if _, err := core.Optimize(huge, core.Options{}); err != core.ErrNoPlan {
		t.Fatalf("expected ErrNoPlan, got %v", err)
	}
	if err := check.OracleAgreement(huge, cost.Naive{}, false, limit, nil, core.ErrNoPlan); err != nil {
		t.Fatalf("genuine ErrNoPlan rejected: %v", err)
	}
}

func TestNoProductBounds(t *testing.T) {
	q := chainQuery()
	m := cost.Naive{}
	limit := math.MaxFloat32
	res := optimize(t, q, core.Options{Model: m})
	if err := check.NoProductBounds(q, m, limit, res.Cost); err != nil {
		t.Fatalf("real cost rejected: %v", err)
	}

	// Mutant: the optimizer claims no plan exists although the product-free
	// baselines find one comfortably under the limit.
	wantErr(t, check.NoProductBounds(q, m, limit, math.Inf(1)), "no plan under limit")

	// Mutant: a "bushy optimum" worse than the restricted baselines.
	wantErr(t, check.NoProductBounds(q, m, limit, res.Cost*1e6), "exceeds BushyNoCP")

	// Disconnected graph: both baselines must refuse.
	dg := joingraph.New(4)
	dg.MustAddEdge(0, 1, 0.5)
	dq := core.Query{Cards: []float64{2, 3, 4, 5}, Graph: dg}
	dres := optimize(t, dq, core.Options{Model: m})
	if err := check.NoProductBounds(dq, m, limit, dres.Cost); err != nil {
		t.Fatalf("disconnected graph: %v", err)
	}
}

func TestSerialParallelIdentical(t *testing.T) {
	q := chainQuery()
	var c check.Checker
	if err := c.SerialParallelIdentical(q, core.Options{}, 3); err != nil {
		t.Fatalf("real optimizer rejected: %v", err)
	}

	// Mutant: the parallel path reports a different cost.
	calls := 0
	c.Optimizer = tampering(&calls, func(_ core.Query, opts core.Options, res *core.Result) {
		if opts.Parallelism > 0 {
			res.Cost *= 1.0000001
		}
	})
	wantErr(t, c.SerialParallelIdentical(q, core.Options{}, 3), "costs differ")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}

	// Mutant: the parallel path merges counters wrongly.
	c.Optimizer = tampering(&calls, func(_ core.Query, opts core.Options, res *core.Result) {
		if opts.Parallelism > 0 {
			res.Counters.LoopIters++
		}
	})
	wantErr(t, c.SerialParallelIdentical(q, core.Options{}, 3), "counters differ")
}

func TestThresholdIdentical(t *testing.T) {
	q := chainQuery()
	var c check.Checker
	res := optimize(t, q, core.Options{})
	if err := c.ThresholdIdentical(q, core.Options{}, res.Cost/2); err != nil {
		t.Fatalf("real optimizer rejected: %v", err)
	}

	// Mutant: thresholding changes the reported plan cost.
	calls := 0
	c.Optimizer = tampering(&calls, func(_ core.Query, opts core.Options, res *core.Result) {
		if opts.CostThreshold > 0 {
			res.Cost++
		}
	})
	wantErr(t, c.ThresholdIdentical(q, core.Options{}, res.Cost/2), "costs differ")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}

	if err := c.ThresholdIdentical(q, core.Options{}, 0); err == nil {
		t.Fatal("nonpositive threshold accepted")
	}
}

// TestSeededIdentical: the greedy seed never changes the answer and, where
// it applies, never needs a second pass — over random queries under both
// exact enumerators. A mutant whose seeded fill reports a retry is caught.
func TestSeededIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var c check.Checker
	for i := 0; i < 100; i++ {
		q := testutil.RandomQuery(rng, 9)
		opts := core.Options{Model: testutil.RandomModel(rng)}
		if err := c.SeededIdentical(q, opts); err != nil {
			t.Fatalf("query %d (n=%d): %v", i, len(q.Cards), err)
		}
		if q.Graph != nil && q.Graph.Connected(bitset.Full(len(q.Cards))) {
			opts.Enumerator = core.EnumeratorCCP
			if err := c.SeededIdentical(q, opts); err != nil {
				t.Fatalf("query %d (n=%d) under ccp: %v", i, len(q.Cards), err)
			}
		}
	}

	calls := 0
	c.Optimizer = tampering(&calls, func(_ core.Query, opts core.Options, res *core.Result) {
		if opts.CostThreshold > 0 {
			res.Counters.Passes = 2
		}
	})
	wantErr(t, c.SeededIdentical(chainQuery(), core.Options{}), "passes, want 1")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}
}

func TestPermutationInvariant(t *testing.T) {
	q := chainQuery()
	var c check.Checker
	if err := c.PermutationInvariant(q, core.Options{}, []int{3, 1, 0, 2}); err != nil {
		t.Fatalf("real optimizer rejected: %v", err)
	}
	if err := c.PermutationInvariant(q, core.Options{}, []int{0, 1}); err == nil {
		t.Fatal("wrong-length permutation accepted")
	}

	// Mutant: an optimizer whose answer depends on relation labels.
	calls := 0
	c.Optimizer = func(q core.Query, opts core.Options) (*core.Result, error) {
		calls++
		return &core.Result{Cost: q.Cards[0]}, nil
	}
	wantErr(t, c.PermutationInvariant(q, core.Options{}, []int{3, 1, 0, 2}), "changed the optimal cost")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}
}

func TestSelectivityOneNeutral(t *testing.T) {
	q := chainQuery()
	var c check.Checker
	if err := c.SelectivityOneNeutral(q, core.Options{}, 0, 3); err != nil {
		t.Fatalf("real optimizer rejected: %v", err)
	}
	// Also from a nil graph (pure Cartesian product).
	pq := core.Query{Cards: []float64{5, 6, 7}}
	if err := c.SelectivityOneNeutral(pq, core.Options{}, 0, 2); err != nil {
		t.Fatalf("nil-graph query rejected: %v", err)
	}
	if err := c.SelectivityOneNeutral(q, core.Options{}, 0, 1); err == nil {
		t.Fatal("existing edge accepted")
	}
	if err := c.SelectivityOneNeutral(q, core.Options{}, 2, 2); err == nil {
		t.Fatal("self pair accepted")
	}

	// Mutant: an optimizer sensitive to predicate count even at selectivity 1.
	calls := 0
	c.Optimizer = func(q core.Query, opts core.Options) (*core.Result, error) {
		calls++
		edges := 0.0
		if q.Graph != nil {
			edges = float64(len(q.Graph.Edges()))
		}
		return &core.Result{Cost: edges}, nil
	}
	wantErr(t, c.SelectivityOneNeutral(q, core.Options{}, 0, 3), "costs differ")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}
}

func TestScalingMonotone(t *testing.T) {
	q := chainQuery()
	var c check.Checker
	for _, lambda := range []float64{1, 2, 1e3} {
		if err := c.ScalingMonotone(q, core.Options{}, lambda); err != nil {
			t.Fatalf("λ=%v: real optimizer rejected: %v", lambda, err)
		}
	}
	if err := c.ScalingMonotone(q, core.Options{}, 0.5); err == nil {
		t.Fatal("shrinking scale factor accepted")
	}

	// Mutant: an optimizer whose cost decreases as relations grow.
	calls := 0
	c.Optimizer = func(q core.Query, opts core.Options) (*core.Result, error) {
		calls++
		return &core.Result{Cost: 1e9 - q.Cards[0]}, nil
	}
	wantErr(t, c.ScalingMonotone(q, core.Options{}, 10), "decreased the optimal cost")
	if calls != 2 {
		t.Fatalf("mutant optimizer ran %d times, want 2", calls)
	}
}

func TestEquivalentResults(t *testing.T) {
	a := &core.Result{Cost: 5, Cardinality: 7, Plan: plan.Leaf(0, 7)}
	b := &core.Result{Cost: 5, Cardinality: 7, Plan: plan.Leaf(0, 7)}
	if err := check.EquivalentResults(a, nil, b, nil, true); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	if err := check.EquivalentResults(nil, core.ErrNoPlan, nil, core.ErrNoPlan, true); err != nil {
		t.Fatalf("matching failures rejected: %v", err)
	}
	wantErr(t, check.EquivalentResults(a, nil, nil, core.ErrNoPlan, true), "one run failed")
	b.Cost = 6
	wantErr(t, check.EquivalentResults(a, nil, b, nil, true), "costs differ")
	b.Cost = 5
	b.Cardinality = 8
	wantErr(t, check.EquivalentResults(a, nil, b, nil, true), "cardinalities differ")
	b.Cardinality = 7
	b.Plan = plan.Leaf(1, 7)
	wantErr(t, check.EquivalentResults(a, nil, b, nil, true), "plans differ")
	b.Plan = plan.Leaf(0, 7)
	b.Counters.LoopIters = 9
	wantErr(t, check.EquivalentResults(a, nil, b, nil, true), "counters differ")
	if err := check.EquivalentResults(a, nil, b, nil, false); err != nil {
		t.Fatalf("counter mismatch should be ignored without compareCounters: %v", err)
	}
}

// TestExecutionAgree runs competing plans for the same query against a
// synthesized database and demands the plan-free count from each, then
// checks the verifier catches a plan that silently drops a relation.
func TestExecutionAgree(t *testing.T) {
	cards := []float64{30, 40, 20, 25}
	g := joingraph.New(4)
	g.MustAddEdge(0, 1, 0.05)
	g.MustAddEdge(1, 2, 0.1)
	g.MustAddEdge(2, 3, 0.08)
	q := core.Query{Cards: cards, Graph: g}
	inst, err := engine.Synthesize(cards, g, 42)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}

	bushy := optimize(t, q, core.Options{Model: cost.SortMerge{}})
	leftDeep := optimize(t, q, core.Options{Model: cost.Naive{}, LeftDeep: true})
	random := baseline.RandomPlan(cards, g, cost.Naive{}, rand.New(rand.NewSource(3)))
	if err := check.ExecutionAgree(inst, 0, bushy.Plan, leftDeep.Plan, random); err != nil {
		t.Fatalf("equivalent plans disagreed: %v", err)
	}

	// Mutant: a "plan" that joins only three of the four relations.
	partial := optimize(t, core.Query{Cards: cards[:3], Graph: nil}, core.Options{})
	wantErr(t, check.ExecutionAgree(inst, 0, bushy.Plan, partial.Plan), "rows")

	if err := check.ExecutionAgree(inst, 0); err == nil {
		t.Fatal("empty plan list accepted")
	}
}

// TestExecutionAgreeAdaptiveReplans plans under a wildly lying selectivity
// but executes against data synthesized from the true one, so the adaptive
// pass inside ExecutionAgree actually fires its greedy re-optimizer — and
// must still count the full join.
func TestExecutionAgreeAdaptiveReplans(t *testing.T) {
	cards := []float64{2000, 2000, 600, 600, 600}
	mkGraph := func(firstSel float64) *joingraph.Graph {
		g := joingraph.New(5)
		g.MustAddEdge(0, 1, firstSel)
		g.MustAddEdge(1, 2, 1.0/600)
		g.MustAddEdge(2, 3, 1.0/600)
		g.MustAddEdge(3, 4, 1.0/600)
		return g
	}
	truth, lie := mkGraph(1.0/40), mkGraph(1.0/4_000_000)
	inst, err := engine.Synthesize(cards, truth, 42)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	misplanned := optimize(t, core.Query{Cards: cards, Graph: lie}, core.Options{})
	honest := optimize(t, core.Query{Cards: cards, Graph: truth}, core.Options{})
	if err := check.ExecutionAgree(inst, 0, misplanned.Plan, honest.Plan); err != nil {
		t.Fatalf("adaptive replan changed the result: %v", err)
	}
}

// TestFullCatchesBrokenOptimizer is the end-to-end mutant test: Full must
// reject an optimizer that returns slightly suboptimal plans.
func TestFullCatchesBrokenOptimizer(t *testing.T) {
	calls := 0
	c := check.Checker{Optimizer: tampering(&calls, func(_ core.Query, _ core.Options, res *core.Result) {
		res.Cost *= 1.001
	})}
	q := chainQuery()
	if err := c.Full(q, cost.SortMerge{}, false, 1); err == nil {
		t.Fatal("Full accepted an optimizer that inflates every cost")
	}
	if calls == 0 {
		t.Fatal("mutant optimizer never ran")
	}
}
