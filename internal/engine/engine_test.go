package engine

import (
	"math"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation("t", 3)
	if err := r.AddCol("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCol("a", []int64{1, 2, 3}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := r.AddCol("b", []int64{1}); err == nil {
		t.Error("short column accepted")
	}
	if r.Rows() != 3 {
		t.Errorf("Rows = %d", r.Rows())
	}
	if got := r.ColNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("ColNames = %v", got)
	}
}

func TestJoinColumnCanonical(t *testing.T) {
	if JoinColumn(3, 1) != JoinColumn(1, 3) {
		t.Error("JoinColumn not canonical")
	}
	if JoinColumn(0, 2) != "jk_0_2" {
		t.Errorf("JoinColumn = %q", JoinColumn(0, 2))
	}
}

func TestSynthesizeShapes(t *testing.T) {
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 0.25)
	g.MustAddEdge(1, 2, 0.1)
	inst, err := Synthesize([]float64{100, 200, 50}, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Relations) != 3 {
		t.Fatalf("relations = %d", len(inst.Relations))
	}
	if inst.Relations[1].Rows() != 200 {
		t.Errorf("R1 rows = %d", inst.Relations[1].Rows())
	}
	// R1 carries both join columns; R0 and R2 one each, and nothing else.
	if len(inst.Relations[1].Cols) != 2 {
		t.Errorf("R1 cols = %v", inst.Relations[1].ColNames())
	}
	if len(inst.Relations[0].Cols) != 1 {
		t.Errorf("R0 cols = %v", inst.Relations[0].ColNames())
	}
	// Join-key domain honours the selectivity: sel 0.25 → domain 4.
	for _, v := range inst.Relations[0].Cols[JoinColumn(0, 1)] {
		if v < 0 || v >= 4 {
			t.Fatalf("join key %d outside domain [0,4)", v)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize([]float64{1, 2}, joingraph.New(3), 1); err == nil {
		t.Error("graph mismatch accepted")
	}
	if _, err := Synthesize([]float64{-1}, nil, 1); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := Synthesize([]float64{math.NaN()}, nil, 1); err == nil {
		t.Error("NaN cardinality accepted")
	}
	if _, err := Synthesize([]float64{1e12}, nil, 1); err == nil {
		t.Error("oversized relation accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.5)
	a, err := Synthesize([]float64{50, 50}, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize([]float64{50, 50}, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	ca := a.Relations[0].Cols[JoinColumn(0, 1)]
	cb := b.Relations[0].Cols[JoinColumn(0, 1)]
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

// twoWayPlan builds the plan (R0 ⨝ R1).
func twoWayPlan(cards []float64) *plan.Node {
	return &plan.Node{
		Set:   bitset.Of(0, 1),
		Card:  0,
		Left:  plan.Leaf(0, cards[0]),
		Right: plan.Leaf(1, cards[1]),
	}
}

// TestJoinAlgorithmsAgree: all three physical operators must produce the same
// number of result tuples on the same input.
func TestJoinAlgorithmsAgree(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.125)
	cards := []float64{400, 300}
	inst, err := Synthesize(cards, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := twoWayPlan(cards)
	var counts []int
	for _, alg := range []JoinAlgorithm{HashJoinAlg, SortMergeAlg, NestedLoopsAlg} {
		n, err := inst.Count(p, ExecOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("algorithms disagree: %v", counts)
	}
	// Expected ≈ 400·300·0.125 = 15000; allow wide statistical tolerance.
	want := 15000.0
	if got := float64(counts[0]); math.Abs(got-want)/want > 0.2 {
		t.Errorf("join size %v far from expectation %v", got, want)
	}
}

// TestCartesianProduct: a predicate-free join is a product with exact size.
func TestCartesianProduct(t *testing.T) {
	cards := []float64{20, 30}
	inst, err := Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := inst.Count(twoWayPlan(cards), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Errorf("product size = %d, want 600", n)
	}
}

// TestThreeWayEstimateVsActual: the optimizer's §5 cardinality estimate and
// the measured result size agree statistically on a 3-relation chain.
func TestThreeWayEstimateVsActual(t *testing.T) {
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 0.05)
	g.MustAddEdge(1, 2, 0.02)
	cards := []float64{200, 400, 500}
	inst, err := Synthesize(cards, g, 11)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:   bitset.Of(0, 1, 2),
		Left:  twoWayPlan(cards),
		Right: plan.Leaf(2, cards[2]),
	}
	n, err := inst.Count(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := g.JoinCardinality(bitset.Of(0, 1, 2), cards) // 200·400·500·0.05·0.02 = 40000
	if math.Abs(float64(n)-want)/want > 0.25 {
		t.Errorf("actual %d vs estimate %v", n, want)
	}
	// Bushy shape over the same relations must give the same count.
	bushy := &plan.Node{
		Set:  bitset.Of(0, 1, 2),
		Left: plan.Leaf(0, cards[0]),
		Right: &plan.Node{Set: bitset.Of(1, 2),
			Left: plan.Leaf(1, cards[1]), Right: plan.Leaf(2, cards[2])},
	}
	n2, err := inst.Count(bushy, ExecOptions{Algorithm: SortMergeAlg})
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Errorf("plan shapes disagree: %d vs %d", n, n2)
	}
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
	inst, err := Synthesize(cards, g, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:   bitset.Of(0, 1, 2),
		Left:  twoWayPlan(cards),
		Right: plan.Leaf(2, cards[2]),
	}
	for _, alg := range []JoinAlgorithm{HashJoinAlg, SortMergeAlg, NestedLoopsAlg} {
		n, err := inst.Count(p, ExecOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// Estimate: 100³·0.001 = 1000 ± statistical noise.
		if n < 500 || n > 2000 {
			t.Errorf("%v: count %d far from 1000", alg, n)
		}
	}
}

func TestRowLimit(t *testing.T) {
	cards := []float64{1000, 1000}
	inst, err := Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Count(twoWayPlan(cards), ExecOptions{MaxRows: 1000})
	if err != ErrRowLimit {
		t.Errorf("err = %v, want ErrRowLimit", err)
	}
}

func TestExecuteValidatesPlan(t *testing.T) {
	inst, err := Synthesize([]float64{5, 5}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Execute(nil, ExecOptions{}); err == nil {
		t.Error("nil plan accepted")
	}
	bad := &plan.Node{Set: bitset.Of(0, 1), Left: plan.Leaf(0, 5)}
	if _, err := inst.Execute(bad, ExecOptions{}); err == nil {
		t.Error("invalid plan accepted")
	}
	unknown := twoWayPlan([]float64{5, 5})
	unknown.Right = plan.Leaf(1, 5)
	unknown.Right.Rel = 1
	// Reference a relation beyond the instance.
	p3 := &plan.Node{Set: bitset.Of(0, 2), Left: plan.Leaf(0, 5), Right: plan.Leaf(2, 5)}
	if _, err := inst.Execute(p3, ExecOptions{}); err == nil {
		t.Error("out-of-range relation accepted")
	}
}

func TestUsePlanAlgorithms(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.5)
	cards := []float64{50, 60}
	inst, err := Synthesize(cards, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := twoWayPlan(cards)
	p.Algorithm = "sortmerge"
	a, err := inst.Count(p, ExecOptions{Algorithm: NestedLoopsAlg, UsePlanAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.Count(p, ExecOptions{Algorithm: NestedLoopsAlg})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("annotation changed semantics: %d vs %d", a, b)
	}
}

func TestAlgorithmByName(t *testing.T) {
	cases := map[string]JoinAlgorithm{
		"sortmerge": SortMergeAlg,
		"sm":        SortMergeAlg,
		"dnl":       NestedLoopsAlg,
		"naive":     NestedLoopsAlg,
		"hash":      HashJoinAlg,
		"anything":  HashJoinAlg,
	}
	for name, want := range cases {
		if got := AlgorithmByName(name); got != want {
			t.Errorf("AlgorithmByName(%q) = %v, want %v", name, got, want)
		}
	}
	if JoinAlgorithm(42).String() == "" {
		t.Error("unknown algorithm String empty")
	}
	if HashJoinAlg.String() != "hash" || SortMergeAlg.String() != "sortmerge" ||
		NestedLoopsAlg.String() != "nestedloops" {
		t.Error("algorithm names wrong")
	}
}

func TestBatchCol(t *testing.T) {
	b := NewBatch([]string{"x", "y"})
	if b.Col("x") != 0 || b.Col("y") != 1 || b.Col("z") != -1 {
		t.Error("Col lookup wrong")
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
}

// TestEmptyRelation: zero-cardinality relations execute fine and produce
// empty joins.
func TestEmptyRelation(t *testing.T) {
	cards := []float64{0, 10}
	inst, err := Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := inst.Count(twoWayPlan(cards), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("empty join size = %d", n)
	}
}
