package core_test

// Benchmarks for the rank-layer parallel fill (satellite of the parallelism
// PR). Each sub-benchmark reuses one pooled Table across iterations through a
// core.Arena, so steady-state iterations measure the fill itself, not the
// four 2^n-slice allocations. Run:
//
//	go test -bench=ParallelFill -benchtime=1x ./internal/core/
//
// Speedups over workers=1 require GOMAXPROCS > 1; on a single-core host the
// worker counts should all time within noise of each other (the scheduling
// overhead is a few chunk-stride goroutines per rank layer).

import (
	"fmt"
	"testing"

	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/workload"
)

// benchParallelCases are the two fill-dominated workloads of the -exp
// parallel experiment: the pure-enumeration Cartesian product (κ0, n = 18 —
// three sizes past the paper's Figure 2 top) and the clique under κdnl at the
// paper's n = 15, where κ″ arithmetic and property lookups ride along.
func benchParallelCases() []workload.Case {
	return []workload.Case{
		workload.CartesianCase(18, 10),
		workload.AppendixCase(joingraph.TopoClique, cost.NewDiskNestedLoops(), 464, 0.5, workload.DefaultN),
	}
}

func BenchmarkParallelFill(b *testing.B) {
	for _, c := range benchParallelCases() {
		q := core.Query{Cards: c.Cards, Graph: c.Graph}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name, workers), func(b *testing.B) {
				arena := core.NewArena(0)
				arena.Put(arena.Get(c.N, c.Graph != nil, c.Model))
				opts := core.Options{Model: c.Model, Parallelism: workers, DiscardTable: true, Arena: arena}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Optimize(q, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
