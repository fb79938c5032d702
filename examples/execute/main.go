// Execute: close the loop from optimization to execution. Build a query,
// optimize it, synthesize a database instance whose data honours the declared
// cardinalities and selectivities, run the optimal plan with the execution
// engine, and compare the optimizer's §5 cardinality estimates against the
// actual result sizes at every join node.
package main

import (
	"fmt"
	"log"
	"math"

	"blitzsplit"
)

func main() {
	q := blitzsplit.NewQuery()
	q.MustAddRelation("suppliers", 400)
	q.MustAddRelation("parts", 1000)
	q.MustAddRelation("shipments", 20000)
	q.MustAddRelation("warehouses", 25)
	q.MustJoin("suppliers", "shipments", 1.0/400)
	q.MustJoin("parts", "shipments", 1.0/1000)
	q.MustJoin("warehouses", "shipments", 1.0/25)

	res, err := q.Optimize(blitzsplit.WithCostModel("dnl"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal plan:")
	fmt.Println(res.Plan)
	fmt.Println()

	db, err := q.Synthesize(2026)
	if err != nil {
		log.Fatal(err)
	}

	// Execute every subtree and compare estimate vs actual.
	fmt.Printf("%-28s %12s %12s %8s\n", "subtree", "estimated", "actual", "ratio")
	var worst float64 = 1
	res.Plan.Walk(func(n *blitzsplit.Plan) {
		if n.IsLeaf() {
			return
		}
		actual, err := blitzsplit.Execute(db, n)
		if err != nil {
			log.Fatalf("executing %v: %v", n.Set, err)
		}
		ratio := math.NaN()
		if n.Card > 0 {
			ratio = float64(actual) / n.Card
			if r := math.Max(ratio, 1/ratio); r > worst {
				worst = r
			}
		}
		fmt.Printf("%-28s %12.1f %12d %8.3f\n", n.Expression(q.RelationNames()), n.Card, actual, ratio)
	})
	fmt.Printf("\nworst estimate/actual discrepancy: %.2f×\n", worst)
	fmt.Println("(uniform independent join keys — the paper's §1 modelling assumption — make")
	fmt.Println("the fan-recurrence estimates statistically accurate; skew would break them)")

	// Sanity: the full result from the facade helper matches.
	total, err := blitzsplit.Execute(db, res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull join: estimated %.1f rows, actual %d rows\n", res.Cardinality, total)
}
