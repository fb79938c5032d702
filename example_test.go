package blitzsplit_test

import (
	"fmt"

	"blitzsplit"
)

// The paper's Table 1: optimizing the pure Cartesian product A × B × C × D.
func Example() {
	q := blitzsplit.NewQuery()
	q.MustAddRelation("A", 10)
	q.MustAddRelation("B", 20)
	q.MustAddRelation("C", 30)
	q.MustAddRelation("D", 40)
	res, err := q.Optimize()
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.0f, cardinality %.0f\n", res.Cost, res.Cardinality)
	// Output:
	// cost 241000, cardinality 240000
}

// A join query with predicates, optimized under the disk-nested-loops model.
func ExampleQuery_Optimize() {
	q := blitzsplit.NewQuery()
	q.MustAddRelation("customer", 150000)
	q.MustAddRelation("orders", 1500000)
	q.MustJoin("customer", "orders", 1.0/150000)
	res, err := q.Optimize(blitzsplit.WithCostModel("dnl"))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Expression())
	fmt.Printf("estimated rows: %.0f\n", res.Cardinality)
	// Output:
	// (customer ⨝ orders)
	// estimated rows: 1500000
}

// Plan-cost thresholds (§6.4): a threshold below the optimum forces
// re-optimization passes but lands on the same optimum.
func ExampleWithCostThreshold() {
	q := blitzsplit.NewQuery()
	q.MustAddRelation("a", 100)
	q.MustAddRelation("b", 200)
	q.MustJoin("a", "b", 0.01)
	res, err := q.Optimize(blitzsplit.WithCostThreshold(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.0f after %d passes\n", res.Cost, res.Counters.Passes)
	// Output:
	// cost 200 after 2 passes
}
