package check

import (
	"errors"
	"fmt"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	ccppkg "blitzsplit/internal/ccp"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// maxBitmapDifferential caps the exhaustive bitmap-vs-BFS connectivity
// cross-check inside EnumeratorAgree: it visits all 2^n subsets, affordable
// per fuzz input only for small n.
const maxBitmapDifferential = 8

// EnumeratorAgree cross-validates the CCP fill strategy against the blitz
// scan on one query — the differential heart of the enumerator work. It runs
// the query under all three Enumerator settings and checks the full
// agreement lattice:
//
//   - Ineligible queries (no graph, disconnected, left-deep, ablation
//     flags): an explicit CCP request must fail with
//     ErrEnumeratorUnsupported, and Auto must be bit-identical to the blitz
//     default — cost, cardinality, plan, and counters.
//   - Eligible queries: Auto must be bit-identical to explicit CCP; CCP's
//     cost must agree with baseline.BushyNoCP (an independent optimizer of
//     the same Cartesian-product-free space) within Tol; the blitz optimum
//     must cost no more than CCP's (its space is a superset); the full-set
//     cardinality must be bitwise equal (it is split-independent); and
//     whenever the blitz winner is itself product-free the two strategies
//     must agree bitwise on cost and plan — the winners are decided by the
//     same κ″ evaluations and smallest-LHS tie rule, so restricting the
//     split loop cannot change them.
//   - Counter bookkeeping: a single-pass, skip-free CCP run performs
//     exactly 2·CountCsgCmpPairs split-loop iterations (both orientations
//     of each connected complement pair).
//   - For n ≤ maxBitmapDifferential, the enumeration-built connectivity
//     bitmap must match the per-subset BFS reference bit for bit.
//
// Threshold and parallelism are forced off so counter comparisons are exact;
// both interact with the enumerator through the separate identity checks
// Full already runs.
func (c Checker) EnumeratorAgree(q core.Query, opts core.Options) error {
	opts.CostThreshold = 0
	opts.Parallelism = 0
	m := opts.Model
	if m == nil {
		m = cost.Naive{}
	}

	bopts := opts
	bopts.Enumerator = core.EnumeratorBlitz
	blitz, blitzErr := c.optimize(q, bopts)
	aopts := opts
	aopts.Enumerator = core.EnumeratorAuto
	auto, autoErr := c.optimize(q, aopts)
	copts := opts
	copts.Enumerator = core.EnumeratorCCP
	cres, ccpErr := c.optimize(q, copts)

	n := len(q.Cards)
	eligible := q.Graph != nil && !opts.LeftDeep &&
		!opts.DisableNestedIfs && !opts.DescendingSubsets &&
		q.Graph.Connected(bitset.Full(n))
	if !eligible {
		if !errors.Is(ccpErr, core.ErrEnumeratorUnsupported) {
			return fmt.Errorf("check: explicit CCP on an ineligible query returned %v, want ErrEnumeratorUnsupported", ccpErr)
		}
		if err := EquivalentResults(blitz, blitzErr, auto, autoErr, true); err != nil {
			return fmt.Errorf("check: Auto fallback vs blitz: %w", err)
		}
		return nil
	}

	if err := EquivalentResults(cres, ccpErr, auto, autoErr, true); err != nil {
		return fmt.Errorf("check: Auto vs explicit CCP on an eligible query: %w", err)
	}
	if blitzErr != nil && !errors.Is(blitzErr, core.ErrNoPlan) {
		return fmt.Errorf("check: blitz failed unexpectedly: %w", blitzErr)
	}
	if blitzErr != nil && ccpErr == nil {
		// CCP searches a subset of the blitz space: it cannot find a plan
		// under the limit where the superset search found none.
		return fmt.Errorf("check: CCP found cost %v where blitz found no plan", cres.Cost)
	}

	// Independent same-space oracle: BushyNoCP optimizes exactly the
	// product-free bushy space with none of core's machinery.
	bnc, bncErr := baseline.BushyNoCP(q.Cards, q.Graph, m)
	if bncErr != nil {
		return fmt.Errorf("check: BushyNoCP failed on a connected graph: %w", bncErr)
	}
	if err := agreeWithOracle(bnc.Cost, effectiveLimit(opts), cres, ccpErr); err != nil {
		return fmt.Errorf("check: CCP vs BushyNoCP: %w", err)
	}

	if blitzErr == nil && ccpErr == nil {
		if blitz.Cost > cres.Cost*(1+Tol) {
			return fmt.Errorf("check: blitz cost %v exceeds CCP cost %v (superset space)", blitz.Cost, cres.Cost)
		}
		if blitz.Cardinality != cres.Cardinality {
			return fmt.Errorf("check: full-set cardinality differs: blitz %v, CCP %v",
				blitz.Cardinality, cres.Cardinality)
		}
		if productFree(q.Graph, blitz.Plan) {
			if blitz.Cost != cres.Cost {
				return fmt.Errorf("check: blitz winner is product-free but costs differ bitwise: %v vs %v",
					blitz.Cost, cres.Cost)
			}
			if !blitz.Plan.Equal(cres.Plan) {
				return fmt.Errorf("check: blitz winner is product-free but plans differ:\n%v\nvs\n%v",
					blitz.Plan, cres.Plan)
			}
		}
	}

	adj := ccppkg.GraphAdjacency(q.Graph)
	if ccpErr == nil && cres.Counters.Passes == 1 && cres.Counters.ThresholdSkips == 0 {
		if want := 2 * adj.CountCsgCmpPairs(); cres.Counters.LoopIters != want {
			return fmt.Errorf("check: CCP LoopIters = %d, want 2·csg-cmp pairs = %d",
				cres.Counters.LoopIters, want)
		}
	}
	if n <= maxBitmapDifferential {
		bitmap, _ := ccppkg.MarkConnected(nil, adj)
		for s := bitset.Set(1); s < bitset.Set(1)<<uint(n); s++ {
			marked := bitmap[s>>6]&(1<<(uint(s)&63)) != 0
			if want := adj.Connected(s); marked != want {
				return fmt.Errorf("check: connectivity bitmap marks %v as %v, BFS says %v", s, marked, want)
			}
		}
	}
	return nil
}

// productFree reports whether every node of the plan joins a connected
// relation set — the membership test for the Cartesian-product-free space
// the CCP enumerator searches. A connected parent always has an edge across
// any split into connected halves, so node-set connectivity everywhere is
// exactly product-freeness.
func productFree(g *joingraph.Graph, p *plan.Node) bool {
	free := true
	p.Walk(func(nd *plan.Node) {
		if nd.Left != nil && !g.Connected(nd.Set) {
			free = false
		}
	})
	return free
}
