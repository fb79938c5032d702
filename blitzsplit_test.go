package blitzsplit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// table1 builds the paper's worked example through the public API.
func table1(t *testing.T) *Query {
	t.Helper()
	q := NewQuery()
	q.MustAddRelation("A", 10)
	q.MustAddRelation("B", 20)
	q.MustAddRelation("C", 30)
	q.MustAddRelation("D", 40)
	return q
}

func TestQuickstartFlow(t *testing.T) {
	q := table1(t)
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 241000 {
		t.Errorf("cost = %v, want 241000", res.Cost)
	}
	if res.Cardinality != 240000 {
		t.Errorf("cardinality = %v", res.Cardinality)
	}
	expr := res.Expression()
	if expr != "((A ⨝ D) ⨝ (B ⨝ C))" && expr != "((B ⨝ C) ⨝ (A ⨝ D))" {
		t.Errorf("expression = %q", expr)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if res.Counters.Passes != 1 {
		t.Errorf("passes = %d", res.Counters.Passes)
	}
}

func TestQueryValidation(t *testing.T) {
	q := NewQuery()
	if err := q.AddRelation("", 5); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := q.Optimize(); err == nil {
		t.Error("empty query optimized")
	}
	q.MustAddRelation("a", 10)
	if err := q.AddRelation("a", 20); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := q.Join("a", "missing", 0.5); err == nil {
		t.Error("join to unknown relation accepted")
	}
	if err := q.Join("missing", "a", 0.5); err == nil {
		t.Error("join from unknown relation accepted")
	}
	q.MustAddRelation("b", 20)
	if err := q.Join("a", "b", 2.0); err != nil {
		t.Error("selectivity validation should be deferred to Optimize")
	}
	if _, err := q.Optimize(); err == nil {
		t.Error("out-of-range selectivity not caught at build time")
	}
}

func TestMustHelpersPanic(t *testing.T) {
	q := NewQuery()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAddRelation did not panic")
			}
		}()
		q.MustAddRelation("", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustJoin did not panic")
			}
		}()
		q.MustJoin("x", "y", 0.5)
	}()
}

func TestAccessors(t *testing.T) {
	q := table1(t)
	if q.NumRelations() != 4 {
		t.Errorf("NumRelations = %d", q.NumRelations())
	}
	names := q.RelationNames()
	if len(names) != 4 || names[0] != "A" || names[3] != "D" {
		t.Errorf("names = %v", names)
	}
}

// TestAddRelationAndLookup: relations keep their insertion order as bitset
// indexes, names and cardinalities, and Join resolves names against them.
func TestAddRelationAndLookup(t *testing.T) {
	q := NewQuery()
	q.MustAddRelation("orders", 1e6)
	q.MustAddRelation("lineitem", 6e6)
	if q.NumRelations() != 2 {
		t.Errorf("NumRelations = %d", q.NumRelations())
	}
	names := q.RelationNames()
	if len(names) != 2 || names[0] != "orders" || names[1] != "lineitem" {
		t.Errorf("names = %v", names)
	}
	// RelationNames is a copy.
	names[0] = "mutated"
	if got := q.RelationNames()[0]; got != "orders" {
		t.Errorf("RelationNames shares the query's slice: %q", got)
	}
	if err := q.Join("orders", "nope", 0.5); err == nil {
		t.Error("Join resolved an unknown name")
	}
	if err := q.Join("lineitem", "orders", 0.5); err != nil {
		t.Fatal(err)
	}
	cq, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Cards) != 2 || cq.Cards[0] != 1e6 || cq.Cards[1] != 6e6 {
		t.Errorf("cards = %v", cq.Cards)
	}
	if cq.Graph == nil || cq.Graph.Selectivity(0, 1) != 0.5 {
		t.Error("join not resolved to relations 0 and 1")
	}
	// Adding a relation after a build leaves the built query as it was.
	q.MustAddRelation("part", 2e5)
	if len(cq.Cards) != 2 || q.NumRelations() != 3 {
		t.Errorf("built cards %v, relations %d", cq.Cards, q.NumRelations())
	}
}

// TestAddRelationValidation: AddRelation rejects an empty or duplicate name
// and a negative or non-finite cardinality, and adds nothing when it does.
func TestAddRelationValidation(t *testing.T) {
	q := NewQuery()
	if err := q.AddRelation("", 10); err == nil {
		t.Error("empty name accepted")
	}
	for _, card := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := q.AddRelation("r", card); err == nil {
			t.Errorf("cardinality %v accepted", card)
		}
	}
	if q.NumRelations() != 0 {
		t.Fatalf("rejected relations were added: %v", q.RelationNames())
	}
	q.MustAddRelation("dup", 1)
	if err := q.AddRelation("dup", 2); err == nil {
		t.Error("duplicate name accepted")
	}
	if q.NumRelations() != 1 {
		t.Errorf("NumRelations = %d after a rejected duplicate", q.NumRelations())
	}
}

// TestAddRelationCapacityLimit: the bitset representation caps a query at
// 30 relations.
func TestAddRelationCapacityLimit(t *testing.T) {
	q := NewQuery()
	for i := 0; i < 30; i++ {
		if err := q.AddRelation(fmt.Sprintf("r%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.AddRelation("overflow", 1); err == nil {
		t.Error("31st relation accepted")
	}
}

func TestJoinsAffectOptimization(t *testing.T) {
	q := NewQuery()
	q.MustAddRelation("facts", 1e6)
	q.MustAddRelation("dim1", 100)
	q.MustAddRelation("dim2", 50)
	q.MustJoin("facts", "dim1", 1e-2)
	q.MustJoin("facts", "dim2", 2e-2)
	res, err := q.Optimize(WithCostModel("dnl"))
	if err != nil {
		t.Fatal(err)
	}
	// Result cardinality: 1e6·100·50·1e-2·2e-2 = 1e6.
	if math.Abs(res.Cardinality-1e6)/1e6 > 1e-9 {
		t.Errorf("cardinality = %v", res.Cardinality)
	}
}

func TestOptions(t *testing.T) {
	q := table1(t)
	// Unknown model name errors.
	if _, err := q.Optimize(WithCostModel("bogus")); err == nil {
		t.Error("bogus model accepted")
	}
	if _, err := q.Optimize(WithCostThreshold(-1)); err == nil {
		t.Error("negative threshold accepted")
	}
	// Left-deep returns a vine.
	res, err := q.Optimize(WithLeftDeep())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsLeftDeep() {
		t.Error("left-deep option ignored")
	}
	// Thresholded run reaches the same optimum.
	th, err := q.Optimize(WithCostThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if th.Cost != 241000 {
		t.Errorf("thresholded cost = %v", th.Cost)
	}
	if th.Counters.Passes < 2 {
		t.Errorf("threshold 1 should force re-optimization, passes = %d", th.Counters.Passes)
	}
}

func TestWithAlgorithms(t *testing.T) {
	q := table1(t)
	res, err := q.Optimize(WithCostModel("min(sortmerge,dnl)"), WithAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	res.Plan.Walk(func(n *Plan) {
		if !n.IsLeaf() {
			joins++
			if n.Algorithm != "sortmerge" && n.Algorithm != "dnl" {
				t.Errorf("join %v algorithm %q", n.Set, n.Algorithm)
			}
		}
	})
	if joins != 3 {
		t.Errorf("joins = %d", joins)
	}
	// Default model with WithAlgorithms labels joins "naive".
	res2, err := q.Optimize(WithAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	res2.Plan.Walk(func(n *Plan) {
		if !n.IsLeaf() && n.Algorithm != "naive" {
			t.Errorf("algorithm = %q", n.Algorithm)
		}
	})
}

func TestSynthesizeAndExecute(t *testing.T) {
	q := NewQuery()
	q.MustAddRelation("l", 300)
	q.MustAddRelation("r", 200)
	q.MustJoin("l", "r", 0.01)
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	db, err := q.Synthesize(42)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := Execute(db, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate 300·200·0.01 = 600; generous statistical tolerance.
	if est := res.Cardinality; math.Abs(float64(actual)-est)/est > 0.3 {
		t.Errorf("actual %d vs estimate %v", actual, est)
	}
	if _, err := NewQuery().Synthesize(1); err == nil {
		t.Error("empty query synthesized")
	}
}

func TestErrNoPlanSurfaced(t *testing.T) {
	q := NewQuery()
	q.MustAddRelation("x", 1e30)
	q.MustAddRelation("y", 1e30)
	if _, err := q.Optimize(); err != ErrNoPlan {
		t.Errorf("err = %v, want ErrNoPlan", err)
	}
}

func TestPlanRenderViaFacade(t *testing.T) {
	q := table1(t)
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.String(), "scan R0") {
		t.Errorf("render = %s", res.Plan)
	}
}
