package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// These tests run synthesized instances through the vectorized executor and
// the plan-free check.CountRows. Both import engine, so the tests live in
// the external test package.

var algorithms = []engine.JoinAlgorithm{engine.HashJoinAlg, engine.SortMergeAlg, engine.NestedLoopsAlg}

func twoWayPlan(cards []float64) *plan.Node {
	return &plan.Node{
		Set:   bitset.Of(0, 1),
		Left:  plan.Leaf(0, cards[0]),
		Right: plan.Leaf(1, cards[1]),
	}
}

// countAll executes p under every algorithm, requires each run to count the
// rows check.CountRows counts without a plan, and returns that count.
func countAll(t *testing.T, inst *engine.Instance, p *plan.Node) int64 {
	t.Helper()
	want, err := check.CountRows(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range algorithms {
		got, err := exec.Count(inst, p, exec.Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got != want {
			t.Errorf("%v: executed %d rows, the full join has %d", alg, got, want)
		}
	}
	return want
}

// TestJoinAlgorithmsAgree: all three physical operators produce the same
// number of result tuples on the same input, and synthesis honours the
// edge's selectivity.
func TestJoinAlgorithmsAgree(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.125)
	cards := []float64{400, 300}
	inst, err := engine.Synthesize(cards, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := countAll(t, inst, twoWayPlan(cards))
	// Expected ≈ 400·300·0.125 = 15000; allow wide statistical tolerance.
	want := 15000.0
	if got := float64(n); math.Abs(got-want)/want > 0.2 {
		t.Errorf("join size %v far from expectation %v", got, want)
	}
}

// TestCartesianProduct: a predicate-free join is a product with exact size.
func TestCartesianProduct(t *testing.T) {
	cards := []float64{20, 30}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := countAll(t, inst, twoWayPlan(cards)); n != 600 {
		t.Errorf("product size = %d, want 600", n)
	}
}

// TestThreeWayEstimateVsActual: the optimizer's §5 cardinality estimate and
// the measured result size agree statistically on a 3-relation chain, and
// left-deep and bushy plans count the same rows.
func TestThreeWayEstimateVsActual(t *testing.T) {
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 0.05)
	g.MustAddEdge(1, 2, 0.02)
	cards := []float64{200, 400, 500}
	inst, err := engine.Synthesize(cards, g, 11)
	if err != nil {
		t.Fatal(err)
	}
	leftDeep := &plan.Node{
		Set:   bitset.Of(0, 1, 2),
		Left:  twoWayPlan(cards),
		Right: plan.Leaf(2, cards[2]),
	}
	n := countAll(t, inst, leftDeep)
	want := g.JoinCardinality(bitset.Of(0, 1, 2), cards) // 200·400·500·0.05·0.02 = 40000
	if math.Abs(float64(n)-want)/want > 0.25 {
		t.Errorf("actual %d vs estimate %v", n, want)
	}
	bushy := &plan.Node{
		Set:  bitset.Of(0, 1, 2),
		Left: plan.Leaf(0, cards[0]),
		Right: &plan.Node{Set: bitset.Of(1, 2),
			Left: plan.Leaf(1, cards[1]), Right: plan.Leaf(2, cards[2])},
	}
	countAll(t, inst, bushy)
}

// TestCycleQueryAllPredicatesApplied: with a cycle topology, the final join
// must apply two predicates at once (the closing edge) — exercising
// multi-predicate joins in all operators.
func TestCycleQueryAllPredicatesApplied(t *testing.T) {
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 0.1)
	g.MustAddEdge(1, 2, 0.1)
	g.MustAddEdge(0, 2, 0.1)
	cards := []float64{100, 100, 100}
	inst, err := engine.Synthesize(cards, g, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:   bitset.Of(0, 1, 2),
		Left:  twoWayPlan(cards),
		Right: plan.Leaf(2, cards[2]),
	}
	// Estimate: 100³·0.001 = 1000 ± statistical noise.
	if n := countAll(t, inst, p); n < 500 || n > 2000 {
		t.Errorf("count %d far from 1000", n)
	}
}

// TestRowLimit: a join that outgrows MaxRows fails with engine.ErrRowLimit.
func TestRowLimit(t *testing.T) {
	cards := []float64{1000, 1000}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.Count(inst, twoWayPlan(cards), exec.Options{MaxRows: 1000})
	if !errors.Is(err, engine.ErrRowLimit) {
		t.Errorf("err = %v, want ErrRowLimit", err)
	}
}

// TestExecuteValidatesPlan: execution rejects a nil plan, a join missing a
// child and a relation beyond the instance.
func TestExecuteValidatesPlan(t *testing.T) {
	inst, err := engine.Synthesize([]float64{5, 5}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(inst, nil, exec.Options{}); err == nil {
		t.Error("nil plan accepted")
	}
	bad := &plan.Node{Set: bitset.Of(0, 1), Left: plan.Leaf(0, 5)}
	if _, err := exec.Run(inst, bad, exec.Options{}); err == nil {
		t.Error("invalid plan accepted")
	}
	p3 := &plan.Node{Set: bitset.Of(0, 2), Left: plan.Leaf(0, 5), Right: plan.Leaf(2, 5)}
	if _, err := exec.Run(inst, p3, exec.Options{}); err == nil {
		t.Error("out-of-range relation accepted")
	}
}

// TestUsePlanAlgorithms: a join's algorithm annotation changes how it runs,
// never what it counts.
func TestUsePlanAlgorithms(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.5)
	cards := []float64{50, 60}
	inst, err := engine.Synthesize(cards, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := twoWayPlan(cards)
	p.Algorithm = "sortmerge"
	a, err := exec.Count(inst, p, exec.Options{Algorithm: engine.NestedLoopsAlg, UsePlanAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if b := countAll(t, inst, p); a != b {
		t.Errorf("annotation changed semantics: %d vs %d", a, b)
	}
}

// TestEmptyRelation: zero-cardinality relations execute fine and produce
// empty joins.
func TestEmptyRelation(t *testing.T) {
	cards := []float64{0, 10}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := countAll(t, inst, twoWayPlan(cards)); n != 0 {
		t.Errorf("empty join size = %d", n)
	}
}

// TestReleaseReuseConcurrent: goroutines that synthesize, execute (Run,
// then RunAdaptive) and release instances of different shapes at once,
// through both free lists (key-column slabs and executors), never see each
// other's data. Every run counts the rows check.CountRows counts on an
// instance of the same shape and seed that was never released.
func TestReleaseReuseConcurrent(t *testing.T) {
	type shape struct {
		cards []float64
		g     *joingraph.Graph
		seed  int64
		plans []*plan.Node
		want  int64
	}
	rng := rand.New(rand.NewSource(5))
	var shapes []shape
	for k := 0; k < 6; k++ {
		// Key–foreign-key chains of 3–7 relations, one closed into a cycle
		// whose last join applies two predicates, and a star of 4 small
		// relations: check.CountRows adds a star's spokes before its hub,
		// so its states multiply with every spoke.
		n, lo, span, star := 3+k, 100, 900, false
		if k == 5 {
			n, lo, span, star = 4, 20, 60, true
		}
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = float64(lo + rng.Intn(span))
		}
		g := joingraph.New(n)
		for j := 1; j < n; j++ {
			a := j - 1
			if star {
				a = 0
			}
			g.MustAddEdge(a, j, 1/math.Max(cards[a], cards[j]))
		}
		if k == 3 {
			g.MustAddEdge(0, n-1, 0.01)
		}
		s := shape{cards: cards, g: g, seed: int64(100 + k)}
		for _, leftDeep := range []bool{false, true} {
			opt, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{LeftDeep: leftDeep})
			if err != nil {
				t.Fatal(err)
			}
			s.plans = append(s.plans, opt.Plan)
		}
		inst, err := engine.Synthesize(cards, g, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.want, err = check.CountRows(inst); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, s)
	}
	const workers, rounds = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := shapes[(w+r)%len(shapes)]
				inst, err := engine.Synthesize(s.cards, s.g, s.seed)
				if err != nil {
					t.Error(err)
					return
				}
				// Each instance runs twice, so a run that wrote into the
				// instance's columns shows in the second count.
				p := s.plans[r%len(s.plans)]
				opts := exec.Options{Algorithm: algorithms[r%2]}
				var res [2]*exec.Result
				res[0], err = exec.Run(inst, p, opts)
				if err == nil {
					res[1], err = exec.RunAdaptive(inst, p, opts, nil)
				}
				inst.Release()
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				for _, got := range res {
					if got.Rows != s.want {
						t.Errorf("worker %d round %d: %d-relation shape counted %d rows, the never-released instance has %d",
							w, r, len(s.cards), got.Rows, s.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
