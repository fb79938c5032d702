package blitzsplit

// Integration tests spanning multiple internal modules: the core optimizer
// against the independent baseline implementations on the paper's Appendix
// workloads, optimized plans executed on synthesized data, and the public
// API end to end.

import (
	"math"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/workload"
)

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// TestBlitzsplitMatchesOracleOnAppendixWorkloads: on every topology × model
// at n = 7 (oracle-feasible: 665 280 plans per oracle run), blitzsplit's
// optimum equals the exhaustive enumeration oracle. The chain/star
// topologies generalize below n=9; cycle+3 requires n ≥ 9 and is covered by
// the no-CP cross-checks below.
func TestBlitzsplitMatchesOracleOnAppendixWorkloads(t *testing.T) {
	n := 7
	topos := []joingraph.Topology{joingraph.TopoChain, joingraph.TopoStar, joingraph.TopoClique}
	for _, topo := range topos {
		for _, model := range cost.PaperModels() {
			for _, mean := range []float64{4.64, 464} {
				c := workload.AppendixCase(topo, model, mean, 0.5, n)
				res, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph},
					core.Options{Model: model})
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				oracle, err := baseline.BruteForce(c.Cards, c.Graph, model)
				if err != nil {
					t.Fatalf("%s: oracle: %v", c.Name, err)
				}
				if relDiff(res.Cost, oracle.Cost) > 1e-9 {
					t.Errorf("%s: blitzsplit %v ≠ oracle %v", c.Name, res.Cost, oracle.Cost)
				}
			}
		}
	}
}

// TestBlitzsplitNeverWorseThanNoCPBaselines: with products allowed,
// blitzsplit's optimum is ≤ both no-product baselines on every Appendix
// configuration at n = 10.
func TestBlitzsplitNeverWorseThanNoCPBaselines(t *testing.T) {
	n := 10
	for _, topo := range []joingraph.Topology{joingraph.TopoChain, joingraph.TopoCyclePlus3, joingraph.TopoStar} {
		for _, model := range cost.PaperModels() {
			c := workload.AppendixCase(topo, model, 100, 0.75, n)
			res, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph},
				core.Options{Model: model})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			noCP, err := baseline.BushyNoCP(c.Cards, c.Graph, model)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if res.Cost > noCP.Cost*(1+1e-9) {
				t.Errorf("%s: blitzsplit %v worse than no-CP %v", c.Name, res.Cost, noCP.Cost)
			}
			sel, err := baseline.SelingerLeftDeep(c.Cards, c.Graph, model, false)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if res.Cost > sel.Cost*(1+1e-9) {
				t.Errorf("%s: blitzsplit %v worse than Selinger %v", c.Name, res.Cost, sel.Cost)
			}
			// Left-deep blitzsplit (with products) ≤ Selinger (without).
			ld, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph},
				core.Options{Model: model, LeftDeep: true})
			if err != nil {
				t.Fatal(err)
			}
			if ld.Cost > sel.Cost*(1+1e-9) {
				t.Errorf("%s: left-deep blitzsplit %v worse than Selinger %v", c.Name, ld.Cost, sel.Cost)
			}
		}
	}
}

// TestConnectedQueriesAgreeWithBushyNoCP: on connected Appendix queries with
// moderate selectivities, the bushy no-product baseline and blitzsplit agree
// whenever blitzsplit's optimal plan happens to contain no products —
// and when they differ, blitzsplit must be strictly better.
func TestConnectedQueriesAgreeWithBushyNoCP(t *testing.T) {
	n := 9
	for _, topo := range joingraph.AllTopologies {
		c := workload.AppendixCase(topo, cost.SortMerge{}, 464, 0.25, n)
		res, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph},
			core.Options{Model: c.Model})
		if err != nil {
			t.Fatal(err)
		}
		noCP, err := baseline.BushyNoCP(c.Cards, c.Graph, c.Model)
		if err != nil {
			t.Fatal(err)
		}
		hasProduct := false
		res.Plan.Walk(func(nd *Plan) {
			if !nd.IsLeaf() && c.Graph.SpanProduct(nd.Left.Set, nd.Right.Set) == 1 {
				hasProduct = true
			}
		})
		switch {
		case !hasProduct && relDiff(res.Cost, noCP.Cost) > 1e-9:
			t.Errorf("%s: product-free optimum %v ≠ no-CP baseline %v", c.Name, res.Cost, noCP.Cost)
		case hasProduct && res.Cost >= noCP.Cost:
			t.Errorf("%s: plan has a product but is not better: %v vs %v", c.Name, res.Cost, noCP.Cost)
		}
	}
}

// TestOptimizedPlanExecutesCorrectly: optimize an Appendix chain query,
// execute the plan on synthesized data, and check the measured cardinality
// against the estimate. Also execute a deliberately different plan shape and
// confirm the result size is identical (plan choice must not change
// semantics).
func TestOptimizedPlanExecutesCorrectly(t *testing.T) {
	n := 6
	cards := joingraph.CardinalityLadder(n, 60, 0.5)
	g := joingraph.Build(joingraph.AppendixChainEdges(n), cards)
	q := core.Query{Cards: cards, Graph: g}
	res, err := core.Optimize(q, core.Options{Model: cost.NewDiskNestedLoops()})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := engine.Synthesize(cards, g, 777)
	if err != nil {
		t.Fatal(err)
	}
	optCount, err := exec.Count(inst, res.Plan, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A left-deep plan over the same query must return the same rows.
	ld, err := core.Optimize(q, core.Options{Model: cost.Naive{}, LeftDeep: true})
	if err != nil {
		t.Fatal(err)
	}
	ldCount, err := exec.Count(inst, ld.Plan, exec.Options{Algorithm: engine.SortMergeAlg})
	if err != nil {
		t.Fatal(err)
	}
	if optCount != ldCount {
		t.Errorf("plan shapes disagree on result size: %d vs %d", optCount, ldCount)
	}
	// The Appendix invariant says the estimate is μ = 60; allow generous
	// statistical tolerance on actual data.
	if est := res.Cardinality; est > 0 && math.Abs(float64(optCount)-est) > 0.75*est+10 {
		t.Errorf("actual %d far from estimate %v", optCount, est)
	}
}

// TestStochasticQualityOnPaperWorkload: the §2 observation — stochastic
// searches find decent but rarely optimal plans. We require them within
// 1000× of optimal (they are usually much closer; this guards against the
// move set silently breaking) and never better than the optimum.
func TestStochasticQualityOnPaperWorkload(t *testing.T) {
	c := workload.AppendixCase(joingraph.TopoCyclePlus3, cost.SortMerge{}, 464, 0.5, 10)
	opt, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph},
		core.Options{Model: c.Model})
	if err != nil {
		t.Fatal(err)
	}
	ii, err := baseline.IterativeImprovement(c.Cards, c.Graph, c.Model,
		baseline.StochasticOptions{Seed: 9, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ii.Cost < opt.Cost*(1-1e-9) {
		t.Errorf("II beat the exhaustive optimum: %v < %v", ii.Cost, opt.Cost)
	}
	if ii.Cost > opt.Cost*1000 {
		t.Errorf("II quality collapsed: %v vs optimum %v", ii.Cost, opt.Cost)
	}
	sa, err := baseline.SimulatedAnnealing(c.Cards, c.Graph, c.Model,
		baseline.StochasticOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Cost < opt.Cost*(1-1e-9) {
		t.Errorf("SA beat the exhaustive optimum: %v < %v", sa.Cost, opt.Cost)
	}
	if sa.Cost > opt.Cost*1000 {
		t.Errorf("SA quality collapsed: %v vs optimum %v", sa.Cost, opt.Cost)
	}
}

// TestAppendixInvariantThroughOptimizer: for every topology, the optimizer's
// estimated result cardinality equals μ — the Appendix's designed invariant —
// at n = 15, touching the full 32768-entry table.
func TestAppendixInvariantThroughOptimizer(t *testing.T) {
	for _, topo := range joingraph.AllTopologies {
		c := workload.AppendixCase(topo, cost.Naive{}, 464, 0.5, workload.DefaultN)
		res, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(res.Cardinality, 464) > 1e-6 {
			t.Errorf("%v: result cardinality %v, want μ=464", topo, res.Cardinality)
		}
	}
}
