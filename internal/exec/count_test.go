package exec_test

import (
	"math/rand"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/testutil"
)

// These tests compare the executor with check.CountRows, which imports exec,
// so they live in the external test package.

var algorithms = []exec.Algorithm{engine.HashJoinAlg, engine.SortMergeAlg, engine.NestedLoopsAlg}

func optimize(t *testing.T, cards []float64, g *joingraph.Graph) *plan.Node {
	t.Helper()
	res, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// TestRunMatchesCountRows is the executor differential: on random queries
// and plans, every algorithm must count exactly the rows of the plan-free
// check.CountRows.
func TestRunMatchesCountRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		q := testutil.RandomQuery(rng, 5)
		cards := make([]float64, len(q.Cards))
		for i := range cards {
			cards[i] = float64(rng.Intn(40)) // keep instances executable
		}
		inst, err := engine.SynthesizeRand(cards, q.Graph, rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := check.CountRows(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plans := []*plan.Node{optimize(t, cards, q.Graph),
			baseline.RandomPlan(cards, q.Graph, cost.Naive{}, rng)}
		for pi, p := range plans {
			for _, alg := range algorithms {
				got, err := exec.Count(inst, p, exec.Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("trial %d plan %d %v: %v", trial, pi, alg, err)
				}
				if got != want {
					t.Fatalf("trial %d plan %d %v: executed %d rows, the full join has %d",
						trial, pi, alg, got, want)
				}
			}
		}
	}
}

// TestPlanAlgorithmAnnotations: under UsePlanAlgorithms every join runs the
// operator its annotation names, not Options.Algorithm, and the annotated
// plan still counts the full join.
func TestPlanAlgorithmAnnotations(t *testing.T) {
	cards := []float64{80, 80, 80, 80}
	g := joingraph.New(len(cards))
	for i := 0; i+1 < len(cards); i++ {
		g.MustAddEdge(i, i+1, 0.02)
	}
	inst, err := engine.Synthesize(cards, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := optimize(t, cards, g)
	p.Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			n.Algorithm = "sortmerge"
		}
	})
	want, err := check.CountRows(inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(inst, p, exec.Options{Algorithm: engine.NestedLoopsAlg, UsePlanAlgorithms: true, CollectOps: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != want {
		t.Fatalf("annotated plan: %d rows, the full join has %d", res.Rows, want)
	}
	joins := 0
	for _, op := range res.Stats.Ops {
		if op.Kind == "scan" {
			continue
		}
		joins++
		if op.Kind != "sortmerge" {
			t.Errorf("join over %v ran %s, annotated sortmerge", op.Set, op.Kind)
		}
	}
	if joins != len(cards)-1 {
		t.Fatalf("%d joins ran, want %d", joins, len(cards)-1)
	}
}
