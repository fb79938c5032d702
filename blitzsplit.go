// Package blitzsplit is a join-order optimizer implementing Algorithm
// blitzsplit from Bennet Vance and David Maier, "Rapid Bushy Join-order
// Optimization with Cartesian Products" (SIGMOD 1996): exhaustive
// dynamic-programming search over the complete space of bushy join trees —
// Cartesian products included — made fast by integer-bitset relation sets,
// O(1) cardinality recurrences that fully separate join-order enumeration
// from predicate analysis, and a decomposed cost function evaluated under
// nested-if pruning.
//
// # Quick start
//
//	q := blitzsplit.NewQuery()
//	q.MustAddRelation("orders", 1e6)
//	q.MustAddRelation("lineitem", 6e6)
//	q.MustAddRelation("customer", 1.5e5)
//	q.MustJoin("orders", "lineitem", 1e-6)
//	q.MustJoin("customer", "orders", 6.7e-6)
//	res, err := q.Optimize(blitzsplit.WithCostModel("dnl"))
//	if err != nil { ... }
//	fmt.Println(res.Expression())
//	fmt.Println(res.Plan)
//
// # Serving many queries
//
// Query.Optimize is a convenience over a shared default Engine. Long-lived
// callers — servers optimizing a stream of queries — should construct their
// own Engine, which adds a canonical-fingerprint plan cache on top of the
// pooled DP-table arena, so repeated query shapes (under any relation
// numbering) are served in microseconds instead of re-paying the 3^n search:
//
//	eng := blitzsplit.New(blitzsplit.EngineOptions{})
//	res, err := eng.Optimize(ctx, q, blitzsplit.WithCostModel("dnl"))
//	if res.Cached { ... served from the plan cache ... }
//
// The package is a facade over the implementation in internal/: the core DP
// optimizer (internal/core), cost models (internal/cost), join graphs
// (internal/joingraph), plan trees (internal/plan), query canonicalization
// (internal/canon), the plan cache (internal/plancache), baseline optimizers
// (internal/baseline) and a small execution engine (internal/engine).
package blitzsplit

import (
	"blitzsplit/internal/core"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/plan"
)

// Plan is an optimized bushy join tree. Leaves scan base relations; inner
// nodes join (or, absent spanning predicates, Cartesian-product) their
// children. See its methods for rendering, validation, and traversal.
type Plan = plan.Node

// Counters are the instrumentation counts of one optimization run — the
// §3.3/§6.2 operation counts (split-loop iterations, κ′/κ″ evaluations,
// threshold skips, passes).
type Counters = core.Counters

// Enumerator selects the exact fill strategy (see WithEnumerator).
type Enumerator = core.Enumerator

// The exact fill strategies WithEnumerator accepts.
const (
	// EnumeratorBlitz is the paper's 3^n split scan over every bipartition,
	// Cartesian products included — the default, and the only complete
	// strategy for disconnected graphs and predicate-free queries.
	EnumeratorBlitz = core.EnumeratorBlitz
	// EnumeratorCCP restricts the scan to connected-subgraph/complement
	// pairs (DPccp): exact over the Cartesian-product-free bushy space.
	// Requires a connected join graph and the default bushy scan; Optimize
	// rejects it otherwise with ErrEnumeratorUnsupported.
	EnumeratorCCP = core.EnumeratorCCP
	// EnumeratorAuto picks per query: CCP when eligible, blitz otherwise.
	// On a connected graph whose optimum uses a Cartesian product, Auto
	// returns the best product-free plan — topology-aware speed at the
	// price of that caveat.
	EnumeratorAuto = core.EnumeratorAuto
)

// ParseEnumerator parses an -enumerator flag value: "blitz" (or ""), "ccp",
// or "auto".
func ParseEnumerator(name string) (Enumerator, error) { return core.ParseEnumerator(name) }

// ErrEnumeratorUnsupported is returned when EnumeratorCCP is requested for a
// query outside its space: no join graph, a disconnected graph, or the
// left-deep restriction.
var ErrEnumeratorUnsupported = core.ErrEnumeratorUnsupported

// Database is a synthesized in-memory instance that optimized plans can be
// executed against. Its Release method hands the data back for reuse by a
// later Synthesize once nothing will execute against it again; executing a
// released Database is an error.
type Database = engine.Instance

// ErrNoPlan is returned when every plan exceeds the overflow cost limit.
var ErrNoPlan = core.ErrNoPlan

// ErrBudgetExceeded is the sentinel wrapped by every budget failure — a
// deadline or cancellation (WithTimeout, WithContext) or a memory-admission
// rejection (WithMemoryBudget). Match with errors.Is; errors.As against
// *BudgetError exposes the phase, progress and elapsed time.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// BudgetError details a budget failure: which phase ran out (admission,
// properties, fill), how many table entries were processed, and how long the
// run had been going.
type BudgetError = core.BudgetError

// Degradation-ladder rungs, recorded in Result.Mode. Each rung trades plan
// quality for resources; every rung's output passes Result.Verify.
const (
	// ModeExhaustive is the full blitzsplit search: the plan is the global
	// optimum under the chosen cost model. Under WithDeadlineLadder the
	// search runs under a §6.4 plan-cost threshold seeded just above the
	// greedy plan's cost whenever that plan lies in the searched space: the
	// optimum costs no more than the greedy plan, so the one pruned pass
	// still returns it, with far less κ″ work than the unpruned search.
	ModeExhaustive = "exhaustive"
	// ModeIDP is the §7 hybrid: iterative dynamic programming over bounded
	// blocks plus randomized polishing. Near-optimal, polynomial time.
	ModeIDP = "idp"
	// ModeGreedy is the minimum-intermediate-result left-deep heuristic:
	// O(n²), no optimality guarantee, never fails — the ladder's floor.
	ModeGreedy = "greedy"
)

// Execute runs a plan against a synthesized database on the vectorized
// columnar engine and returns the actual result cardinality. For another
// join algorithm, per-operator statistics, or adaptive mid-query
// re-optimization, use Engine.OptimizeAndExecute.
func Execute(db *Database, p *Plan) (int, error) {
	rows, err := exec.Count(db, p, exec.Options{})
	return int(rows), err
}
