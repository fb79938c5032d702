package blitzsplit

// Benchmarks regenerating every table and figure of Vance & Maier (SIGMOD
// 1996). Each benchmark measures one optimizer invocation per iteration, so
// ns/op is directly comparable to the paper's per-optimization timings
// (SPARCstation 2 and HP 9000/755; the paper's 15-way κ0 point is ≈ 0.9 s on
// the HP). Run:
//
//	go test -bench=. -benchmem
//
// or a single figure:
//
//	go test -bench=Figure2 -benchmem
//
// cmd/blitzbench renders the same experiments as full tables (including the
// operation-count analyses that a time-only benchmark cannot show).

import (
	"fmt"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/hybrid"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/workload"
)

// optimizeB runs one case per iteration, failing the benchmark on error.
func optimizeB(b *testing.B, c workload.Case, opts core.Options) {
	b.Helper()
	q := core.Query{Cards: c.Cards, Graph: c.Graph}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 optimizes the paper's worked 4-relation product example.
func BenchmarkTable1(b *testing.B) {
	optimizeB(b, workload.Table1Case(), core.Options{})
}

// BenchmarkFigure2 measures Cartesian-product optimization against n — the
// paper's Figure 2. The growth between successive n should track
// 3^n·T_loop + (ln2/2)·n·2^n·T_cond + 2^n·T_subset.
func BenchmarkFigure2(b *testing.B) {
	for n := 6; n <= 15; n++ {
		c := workload.CartesianCase(n, 10)
		b.Run(fmt.Sprintf("n=%02d", n), func(b *testing.B) {
			optimizeB(b, c, core.Options{})
		})
	}
}

// BenchmarkFigure4 samples the 4-dimensional sensitivity sweep of Figure 4 at
// n = 15: every (cost model × topology) cell at the grid's center
// (mean = 464, var = 0.5) and at the treacherous mean-cardinality-1 corner
// where the paper reports the worst degradation.
func BenchmarkFigure4(b *testing.B) {
	for _, model := range cost.PaperModels() {
		for _, topo := range joingraph.AllTopologies {
			for _, mean := range []float64{1, 464} {
				c := workload.AppendixCase(topo, model, mean, 0.5, workload.DefaultN)
				name := fmt.Sprintf("%s/%s/mean=%g", model.Name(), topo, mean)
				b.Run(name, func(b *testing.B) {
					optimizeB(b, c, core.Options{Model: model})
				})
			}
		}
	}
}

// BenchmarkFigure5 runs the two close-up cells of Figure 5 across the full
// mean-cardinality axis at variability 0.5, exposing the chaise-longue shape
// (slow at mean 1, settling as cardinality grows).
func BenchmarkFigure5(b *testing.B) {
	cells := []struct {
		model cost.Model
		topo  joingraph.Topology
	}{
		{cost.Naive{}, joingraph.TopoChain},
		{cost.NewDiskNestedLoops(), joingraph.TopoCyclePlus3},
	}
	for _, cell := range cells {
		for _, mean := range []float64{1, 21.5, 464, 1e4, 1e6} {
			c := workload.AppendixCase(cell.topo, cell.model, mean, 0.5, workload.DefaultN)
			name := fmt.Sprintf("%s/%s/mean=%g", cell.model.Name(), cell.topo, mean)
			b.Run(name, func(b *testing.B) {
				optimizeB(b, c, core.Options{Model: cell.model})
			})
		}
	}
}

// BenchmarkFigure6 measures the plan-cost-threshold experiments of Figure 6:
// the same two cells as Figure 5, with the paper's thresholds. Cells where
// the threshold is exceeded pay for re-optimization passes (the ripples);
// cells with cheap plans drop well below their Figure-5 counterparts.
func BenchmarkFigure6(b *testing.B) {
	cells := []struct {
		model     cost.Model
		topo      joingraph.Topology
		threshold float64
	}{
		{cost.Naive{}, joingraph.TopoChain, 1e9},
		{cost.NewDiskNestedLoops(), joingraph.TopoCyclePlus3, 1e5},
		{cost.NewDiskNestedLoops(), joingraph.TopoCyclePlus3, 1e14},
	}
	for _, cell := range cells {
		for _, mean := range []float64{21.5, 464, 1e4, 1e6} {
			c := workload.AppendixCase(cell.topo, cell.model, mean, 0.5, workload.DefaultN)
			name := fmt.Sprintf("%s/%s/th=%g/mean=%g", cell.model.Name(), cell.topo, cell.threshold, mean)
			b.Run(name, func(b *testing.B) {
				optimizeB(b, c, core.Options{Model: cell.model, CostThreshold: cell.threshold})
			})
		}
	}
}

// BenchmarkJoinVsCartesian reproduces the §6.2 cross-check: under κ0,
// 15-way join optimization should land in the same time band as 15-way
// Cartesian-product optimization (the paper's 0.6–1.1 s vs 0.9 s).
func BenchmarkJoinVsCartesian(b *testing.B) {
	b.Run("cartesian", func(b *testing.B) {
		optimizeB(b, workload.CartesianCase(workload.DefaultN, 10), core.Options{})
	})
	for _, topo := range joingraph.AllTopologies {
		c := workload.AppendixCase(topo, cost.Naive{}, 464, 0.5, workload.DefaultN)
		b.Run("join/"+topo.String(), func(b *testing.B) {
			optimizeB(b, c, core.Options{})
		})
	}
}

// BenchmarkAblation quantifies each §4 implementation trick on the
// (κdnl, cycle+3) cell: nested ifs, enumeration order, thresholds, and the
// left-deep restriction.
func BenchmarkAblation(b *testing.B) {
	c := workload.AppendixCase(joingraph.TopoCyclePlus3, cost.NewDiskNestedLoops(), 464, 0.5, workload.DefaultN)
	base, err := core.Optimize(core.Query{Cards: c.Cards, Graph: c.Graph}, core.Options{Model: c.Model})
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{Model: c.Model}},
		{"no-nested-ifs", core.Options{Model: c.Model, DisableNestedIfs: true}},
		{"descending-enum", core.Options{Model: c.Model, DescendingSubsets: true}},
		{"threshold-10x", core.Options{Model: c.Model, CostThreshold: base.Cost * 10}},
		{"left-deep", core.Options{Model: c.Model, LeftDeep: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			optimizeB(b, c, v.opts)
		})
	}
}

// BenchmarkMemoization isolates the Appendix note that κsm's logarithm can be
// memoized in the DP table, by comparing the memoized sort-merge model with a
// deliberately unmemoized equivalent.
func BenchmarkMemoization(b *testing.B) {
	c := workload.AppendixCase(joingraph.TopoChain, cost.SortMerge{}, 464, 0.5, workload.DefaultN)
	b.Run("memoized", func(b *testing.B) {
		optimizeB(b, c, core.Options{Model: cost.SortMerge{}})
	})
	b.Run("unmemoized", func(b *testing.B) {
		optimizeB(b, c, core.Options{Model: unmemoizedSortMerge{}})
	})
}

// unmemoizedSortMerge is κsm without the Memoized fast path.
type unmemoizedSortMerge struct{ cost.SortMerge }

// SplitDep recomputes both logarithm terms on every call.
func (m unmemoizedSortMerge) SplitDep(out, l, r float64) float64 {
	return m.SortMerge.SplitDep(out, l, r)
}

// Name distinguishes the model in reports.
func (unmemoizedSortMerge) Name() string { return "sortmerge-unmemoized" }

// BenchmarkBaselines compares blitzsplit against the §2 alternatives on a
// 12-relation Appendix query (12 keeps the exhaustive baselines affordable;
// the stochastic searches get their default budgets).
func BenchmarkBaselines(b *testing.B) {
	n := 12
	c := workload.AppendixCase(joingraph.TopoCyclePlus3, cost.NewDiskNestedLoops(), 464, 0.5, n)
	q := core.Query{Cards: c.Cards, Graph: c.Graph}
	b.Run("blitzsplit-bushy", func(b *testing.B) {
		optimizeB(b, c, core.Options{Model: c.Model})
	})
	b.Run("blitzsplit-leftdeep", func(b *testing.B) {
		optimizeB(b, c, core.Options{Model: c.Model, LeftDeep: true})
	})
	b.Run("selinger-noCP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SelingerLeftDeep(c.Cards, c.Graph, c.Model, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bushy-noCP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.BushyNoCP(c.Cards, c.Graph, c.Model); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iterative-improvement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.IterativeImprovement(c.Cards, c.Graph, c.Model,
				baseline.StochasticOptions{Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulated-annealing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SimulatedAnnealing(c.Cards, c.Graph, c.Model,
				baseline.StochasticOptions{Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = q
}

// BenchmarkHybrid measures the §7 hybrid path (IDP block 8, then local
// search) on a 20-relation chain — beyond comfortable exhaustive reach.
func BenchmarkHybrid(b *testing.B) {
	n := 20
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	g := joingraph.Build(joingraph.AppendixChainEdges(n), cards)
	m := cost.NewDiskNestedLoops()
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hybrid.Greedy(cards, g, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("idp-k8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hybrid.IDP(cards, g, m, hybrid.IDPOptions{K: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chained-local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hybrid.ChainedLocal(cards, g, m, hybrid.IDPOptions{
				K: 8, Stochastic: baseline.StochasticOptions{Seed: int64(i + 1)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI measures the facade overhead end to end on a 10-way
// star query.
func BenchmarkPublicAPI(b *testing.B) {
	build := func() *Query {
		q := NewQuery()
		q.MustAddRelation("facts", 1e7)
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("dim%d", i)
			q.MustAddRelation(name, float64(10*(i+1)))
			q.MustJoin("facts", name, 1/float64(10*(i+1)))
		}
		return q
	}
	q := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Optimize(WithCostModel("dnl")); err != nil {
			b.Fatal(err)
		}
	}
}
