// Package core implements Algorithm blitzsplit (Vance & Maier, SIGMOD 1996):
// exhaustive, dynamic-programming join-order optimization over the complete
// space of bushy plans, Cartesian products included, with the lightweight
// implementation techniques of §4 — integer-bitset relation sets, numeric
// table fill order, the two's-complement split successor, κ′/κ″ cost
// decomposition with nested-if pruning — and the extensions of §5 (the fan
// recurrence for predicate selectivities) and §6.4 (plan-cost thresholds
// with re-optimization passes).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// Query is a join-order optimization problem: base-relation cardinalities
// plus an optional join graph. A nil Graph means no predicates — the pure
// Cartesian-product optimization of §3.
type Query struct {
	// Cards holds the base-relation cardinalities; Cards[i] is |Ri|.
	Cards []float64
	// Graph carries the join predicates and selectivities; nil for a pure
	// Cartesian product.
	Graph *joingraph.Graph
}

// NumRelations returns the number of base relations.
func (q Query) NumRelations() int { return len(q.Cards) }

// Validate checks the query is well-formed.
func (q Query) Validate() error {
	n := len(q.Cards)
	if n == 0 {
		return errors.New("core: query has no relations")
	}
	if n > bitset.MaxRelations {
		return fmt.Errorf("core: %d relations exceeds the maximum %d", n, bitset.MaxRelations)
	}
	for i, c := range q.Cards {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("core: relation %d has invalid cardinality %v", i, c)
		}
	}
	if q.Graph != nil && q.Graph.N() != n {
		return fmt.Errorf("core: join graph covers %d relations, query has %d", q.Graph.N(), n)
	}
	return nil
}

// Options configures a blitzsplit run. The zero value is a sensible default:
// naive cost model, bushy search, no plan-cost threshold, overflow limit at
// the single-precision maximum (mirroring the paper's float32 cost
// representation, §6.3).
type Options struct {
	// Model is the cost model; nil means cost.Naive{}.
	Model cost.Model
	// LeftDeep restricts the search to left-deep vines (the comparison space
	// of §6.2). Cartesian products remain allowed.
	LeftDeep bool
	// CostThreshold enables §6.4 plan-cost-threshold pruning when > 0: any
	// relation set whose split-independent cost already exceeds the threshold
	// has its best-split search skipped wholesale (under κsm, any set but the
	// full one whose memo exceeds it), and any plan costlier than the
	// threshold is rejected. If optimization fails at the current
	// threshold, it is retried with the threshold multiplied by
	// thresholdGrowth, up to maxPasses passes. 0 disables thresholding.
	CostThreshold float64
	// OverflowLimit is the cost above which plans are summarily rejected,
	// simulating the paper's single-precision overflow; ≤ 0 means
	// math.MaxFloat32.
	OverflowLimit float64
	// DisableNestedIfs makes the split loop evaluate κ″ unconditionally
	// (ablating the §4.2 optimization; for benchmarks).
	DisableNestedIfs bool
	// DescendingSubsets switches the split enumerator from the paper's
	// succ(L) = S & (L−S) to the classic descending (L−1) & S (ablation).
	DescendingSubsets bool
	// Parallelism selects the fill schedule. 0 (or negative) runs the
	// paper's serial numeric-order fill, unchanged. w ≥ 1 runs the
	// rank-layer parallel fill with w workers: subsets of popcount k depend
	// only on subsets of popcount < k, so each layer is partitioned across
	// workers with a barrier between layers. Values beyond
	// runtime.GOMAXPROCS(0) would only add overhead and are clamped down to
	// it; the clamp cannot change results because the parallel fill is
	// bit-identical to the serial one — same plan, same costs, equal merged
	// counter totals — at every worker count.
	Parallelism int
	// Ctx, when non-nil, bounds the run: its cancellation or deadline stops
	// the property and cost fills cooperatively at the next check boundary
	// (rank layers and worker chunks in the parallel schedule, a
	// 1024-subset stride in the serial one) and Optimize returns a
	// *BudgetError wrapping ErrBudgetExceeded and the context's error. A
	// stopped run leaves the Table safely resettable and leaks no
	// goroutines.
	Ctx context.Context
	// MemoryBudget, in bytes, rejects the run up front — before anything is
	// allocated — when its exact footprint (TableFootprint, plus CCPFootprint
	// when the resolved enumerator is EnumeratorCCP) exceeds it, returning a
	// *BudgetError with Phase PhaseAdmission. The
	// admission decision depends only on the query shape, never on whether
	// a reused table's capacity happens to suffice, so a given query is
	// accepted or rejected deterministically. 0 means no limit.
	MemoryBudget uint64
	// DiscardTable drops the DP table from the Result. The table holds four
	// 2^n-element columns (≈ 28 B per subset — hundreds of MB at n ≥ 24);
	// by default Result retains it for inspection, pinning that memory for
	// as long as the Result lives. Callers that only want the plan should
	// set DiscardTable (the measurement harness does).
	DiscardTable bool
	// Enumerator selects the exact fill strategy: the paper's 3^n split scan
	// over every bipartition (EnumeratorBlitz, the zero value), the
	// connected-complement-pair restriction (EnumeratorCCP), or per-query
	// topology-aware selection (EnumeratorAuto). CCP is exact over the
	// Cartesian-product-free bushy space and requires a connected join graph
	// under the default bushy scan; requesting it for any other query makes
	// Optimize return ErrEnumeratorUnsupported. See the Enumerator constants
	// for the search-space caveat Auto accepts.
	Enumerator Enumerator
	// Arena supplies and reclaims the DP table: Optimize checks a pooled
	// table out instead of allocating, and returns it on every path that
	// does not hand the table to the caller — budget failures, ErrNoPlan,
	// and successes under DiscardTable. Combine with DiscardTable for fully
	// pooled operation (the facade Engine does); without DiscardTable the
	// checked-out table rides in Result.Table and the caller is responsible
	// for Arena.Put. nil allocates a fresh table per run.
	Arena *Arena
}

func (o Options) model() cost.Model {
	if o.Model == nil {
		return cost.Naive{}
	}
	return o.Model
}

func (o Options) overflowLimit() float64 {
	if o.OverflowLimit <= 0 {
		return math.MaxFloat32
	}
	return o.OverflowLimit
}

// The §6.4 retry schedule: a pass that finds no plan under the threshold is
// retried with the threshold ×thresholdGrowth, and pass maxPasses runs with
// the threshold removed (clamped to the overflow limit), so the bound never
// causes a spurious failure.
const (
	thresholdGrowth = 1000
	maxPasses       = 10
)

func (o Options) workers() int {
	if o.Parallelism < 0 {
		return 0
	}
	// More workers than GOMAXPROCS can ever run just adds spawn overhead
	// and barrier latency; results are schedule-independent, so the clamp
	// is invisible except in speed.
	if max := runtime.GOMAXPROCS(0); o.Parallelism > max {
		return max
	}
	return o.Parallelism
}

// Counters instruments the algorithm with the operation counts §3.3 and §6
// analyze. They are hardware-independent and are the primary reproduction
// target for the paper's complexity claims.
type Counters struct {
	// SubsetsVisited counts invocations of the per-set work
	// (compute_properties + find_best_split): one per non-singleton subset
	// per pass, ≈ 2^n.
	SubsetsVisited uint64
	// LoopIters counts split-loop iterations across all sets: ≈ 3^n for
	// bushy search (§3.3), ≈ (n/2)·2^n for left-deep.
	LoopIters uint64
	// KppEvals counts evaluations of the split-dependent cost κ″; with
	// nested ifs it falls between (ln2/2)·n·2^n and 3^n (§6.2).
	KppEvals uint64
	// KpEvals counts evaluations of the split-independent cost κ′: at most
	// one per set per pass (§6.2: "fixed execution count of just 2^n").
	KpEvals uint64
	// CondHits counts executions of the conditional improves-best block; the
	// §3.3 statistical argument predicts ≈ (ln2/2)·n·2^n in aggregate.
	CondHits uint64
	// ThresholdSkips counts sets whose best-split search was skipped: κ′
	// already exceeded the active threshold or overflow limit (§6.3–6.4), or,
	// under κsm in a pass under a threshold below the overflow limit, the
	// set is not the full set and its memo |s|(1+ln|s|) exceeds the
	// threshold, so it can be no operand of a plan within it. Unthresholded
	// κsm passes skip nothing (κ′sm ≡ 0).
	ThresholdSkips uint64
	// Passes is the number of optimization passes run (> 1 only when a
	// plan-cost threshold forced re-optimization, §6.4).
	Passes int
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.SubsetsVisited += other.SubsetsVisited
	c.LoopIters += other.LoopIters
	c.KppEvals += other.KppEvals
	c.KpEvals += other.KpEvals
	c.CondHits += other.CondHits
	c.ThresholdSkips += other.ThresholdSkips
	c.Passes += other.Passes
}

// Result is the outcome of an optimization run.
type Result struct {
	// Plan is the optimal join tree.
	Plan *plan.Node
	// Cost is the estimated cost of Plan under the run's cost model.
	Cost float64
	// Cardinality is the estimated result cardinality of the full join.
	Cardinality float64
	// Counters holds the instrumentation accumulated over all passes.
	Counters Counters
	// Table is the filled dynamic-programming table, retained for
	// inspection (Table 1 reproduction, debugging, tests). It reflects the
	// final (successful) pass. Retention is not free: the table's four
	// 2^n-element columns live as long as the Result does (up to hundreds
	// of MB for n ≥ 24) — set Options.DiscardTable to get nil here and let
	// the table be collected, or pooled in Options.Arena. A retained table
	// drawn from an arena is the caller's to Put back; once it is, a later
	// run overwrites its contents in place.
	Table *Table
}

// ErrNoPlan is returned when no plan exists within the overflow limit even
// on the final unthresholded pass.
var ErrNoPlan = errors.New("core: no plan within the overflow cost limit")

// Optimize runs Algorithm blitzsplit on the query, drawing its DP table
// from opts.Arena.
func Optimize(q Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Resolve Auto to a concrete strategy (and validate an explicit CCP
	// request) up front, so the fill passes below see only Blitz or CCP.
	enum, err := opts.EnumeratorFor(q)
	if err != nil {
		return nil, err
	}
	opts.Enumerator = enum
	n := len(q.Cards)
	// Memory admission control: reject before allocating rather than OOM
	// after. The footprint formula is exact for the table's columns and
	// bounds the CCP fill's bitmap and layer buffer.
	if opts.MemoryBudget > 0 {
		fp := TableFootprint(n, q.Graph != nil, opts.model())
		if enum == EnumeratorCCP {
			fp += CCPFootprint(n, opts.workers() > 0)
		}
		if fp > opts.MemoryBudget {
			return nil, &BudgetError{Phase: PhaseAdmission, Footprint: fp, Budget: opts.MemoryBudget}
		}
	}
	bg := startBudget(opts.Ctx)
	defer bg.release()
	if bg.halted() {
		// The budget was spent before the run began (e.g. a lower ladder rung
		// entered after the governing deadline passed); return before paying
		// for the 2^n table allocation.
		return nil, bg.exceeded(PhaseProperties)
	}
	// Once checked out, the table goes back to the arena on every path that
	// does not hand it to the caller, so budget aborts and ErrNoPlan never
	// leak a pooled table. Get and Put are nil-safe: a nil arena allocates
	// and never pools.
	t := opts.Arena.Get(n, q.Graph != nil, opts.model())
	if err := t.initProperties(q, opts.workers(), bg); err != nil {
		opts.Arena.Put(t)
		return nil, err
	}

	var total Counters
	limit := opts.overflowLimit()
	threshold := limit
	if opts.CostThreshold > 0 && opts.CostThreshold < limit {
		threshold = opts.CostThreshold
	}
	for pass := 1; ; pass++ {
		if pass == maxPasses && threshold < limit {
			threshold = limit // last chance: drop the artificial threshold
		}
		c, err := t.fillCosts(q, opts, threshold, bg)
		total.Add(c)
		total.Passes = pass
		if err != nil {
			opts.Arena.Put(t)
			return nil, err
		}
		if t.Cost(t.full) < math.Inf(1) {
			break
		}
		if threshold >= limit {
			opts.Arena.Put(t)
			return nil, ErrNoPlan
		}
		threshold *= thresholdGrowth
		if threshold > limit {
			threshold = limit
		}
	}

	root := t.ExtractPlan(t.full)
	res := &Result{
		Plan:        root,
		Cost:        t.Cost(t.full),
		Cardinality: t.Card(t.full),
		Counters:    total,
	}
	if !opts.DiscardTable {
		res.Table = t
	} else {
		opts.Arena.Put(t)
	}
	return res, nil
}
