// Thresholds: demonstrate §6.4 plan-cost-threshold pruning. A generous
// threshold cuts optimization work sharply on chain queries (the best case);
// a threshold below the true optimum forces re-optimization passes — the
// "ripples" of Figure 6 — yet still lands on the same optimal plan.
package main

import (
	"fmt"
	"log"
	"time"

	"blitzsplit"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
)

func main() {
	// A 15-relation chain query from the paper's Appendix workload.
	n := 15
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	g := joingraph.Build(joingraph.AppendixChainEdges(n), cards)
	q := core.Query{Cards: cards, Graph: g}
	model := cost.NewDiskNestedLoops()

	measure := func(opts core.Options) (*core.Result, time.Duration) {
		start := time.Now()
		res, err := core.Optimize(q, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}

	base, baseTime := measure(core.Options{Model: model})
	fmt.Printf("no threshold:        cost=%.6g  time=%-12v loop_iters=%-10d κ″=%d\n",
		base.Cost, baseTime, base.Counters.LoopIters, base.Counters.KppEvals)

	generous, genTime := measure(core.Options{Model: model, CostThreshold: base.Cost * 10})
	fmt.Printf("threshold 10×opt:    cost=%.6g  time=%-12v loop_iters=%-10d κ″=%d  (passes=%d, skips=%d)\n",
		generous.Cost, genTime, generous.Counters.LoopIters, generous.Counters.KppEvals,
		generous.Counters.Passes, generous.Counters.ThresholdSkips)

	tight, tightTime := measure(core.Options{Model: model, CostThreshold: base.Cost / 1e6})
	fmt.Printf("threshold opt/1e6:   cost=%.6g  time=%-12v loop_iters=%-10d κ″=%d  (passes=%d — the Figure-6 ripple)\n",
		tight.Cost, tightTime, tight.Counters.LoopIters, tight.Counters.KppEvals, tight.Counters.Passes)

	if generous.Cost != base.Cost || tight.Cost != base.Cost {
		log.Fatal("thresholded optimization changed the optimum — bug")
	}
	fmt.Println("\nall three runs return the identical optimal plan:")
	fmt.Println(base.Plan.Expression(nil))
	fmt.Printf("\nκ″ work saved by the generous threshold: %.1f×  (the §6.4 effect; chains approach the n³/3 = %d bound)\n",
		float64(base.Counters.KppEvals)/float64(generous.Counters.KppEvals+1), n*n*n/3)

	// Demonstrate the same machinery through the public API.
	pub := blitzsplit.NewQuery()
	pub.MustAddRelation("a", 100)
	pub.MustAddRelation("b", 200)
	pub.MustAddRelation("c", 300)
	pub.MustJoin("a", "b", 0.01)
	pub.MustJoin("b", "c", 0.01)
	res, err := pub.Optimize(blitzsplit.WithCostThreshold(1)) // far below optimum
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npublic API with threshold 1: recovered after %d passes, cost %.6g\n",
		res.Counters.Passes, res.Cost)
}
