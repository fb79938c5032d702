package check

import (
	"fmt"
	"math"
	"math/rand"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
)

// maxBruteForceFull caps the second-oracle cross-check inside Full: the
// plan-enumerating brute force visits n!·Catalan(n−1) plans, affordable per
// fuzz input only for small n (RecursiveMemo covers every n regardless).
const maxBruteForceFull = 5

// Full runs the entire invariant lattice on one query: oracle agreement,
// plan well-formedness, cost and counter bookkeeping, the serial/parallel,
// threshold and greedy-seed identities, the no-product bounds, and the
// metamorphic transforms. aux seeds the derived random choices (permutation,
// worker count, scale factor) so the whole run is a pure function of its
// inputs — the contract a fuzz target needs. It is the body of FuzzOptimize
// and the randomized sweep tests.
func (c Checker) Full(q core.Query, m cost.Model, leftDeep bool, aux int64) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("check: generator produced an invalid query: %w", err)
	}
	n := len(q.Cards)
	opts := core.Options{Model: m, LeftDeep: leftDeep, DiscardTable: true}
	limit := effectiveLimit(opts)
	res, optErr := c.optimize(q, opts)
	got, err := costOrNoPlan(res, optErr)
	if err != nil {
		return err
	}

	if err := OracleAgreement(q, m, leftDeep, limit, res, optErr); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !leftDeep && n <= maxBruteForceFull {
		if err := BruteForceAgreement(q, m, limit, res, optErr); err != nil {
			return fmt.Errorf("brute force: %w", err)
		}
	}
	if !leftDeep && q.Graph != nil {
		if err := NoProductBounds(q, m, limit, got); err != nil {
			return fmt.Errorf("no-product bounds: %w", err)
		}
	}

	if optErr == nil {
		if err := WellFormed(n, res.Plan); err != nil {
			return fmt.Errorf("well-formedness: %w", err)
		}
		if err := CostConsistent(q, m, res); err != nil {
			return fmt.Errorf("cost bookkeeping: %w", err)
		}
		if err := CountersExact(n, leftDeep, res.Counters); err != nil {
			return fmt.Errorf("counter bookkeeping: %w", err)
		}
	}

	if err := c.SerialParallelIdentical(q, opts, 2+int(aux&1)); err != nil {
		return fmt.Errorf("serial/parallel identity: %w", err)
	}
	threshold := 1.0
	if optErr == nil && res.Cost > 0 && !math.IsInf(res.Cost, 1) {
		threshold = res.Cost / 2
	}
	if err := c.ThresholdIdentical(q, opts, threshold); err != nil {
		return fmt.Errorf("threshold identity: %w", err)
	}
	if err := c.SeededIdentical(q, opts); err != nil {
		return fmt.Errorf("seeded identity: %w", err)
	}

	if err := c.EnumeratorAgree(q, opts); err != nil {
		return fmt.Errorf("enumerator agreement: %w", err)
	}
	if !leftDeep && q.Graph != nil && q.Graph.Connected(bitset.Full(n)) {
		// Re-run the identity checks under the CCP enumerator: its layered
		// parallel fill, threshold passes and greedy seed must be as
		// bit-stable as the blitz scan's.
		copts := opts
		copts.Enumerator = core.EnumeratorCCP
		if err := c.SerialParallelIdentical(q, copts, 2+int(aux&1)); err != nil {
			return fmt.Errorf("ccp serial/parallel identity: %w", err)
		}
		if err := c.ThresholdIdentical(q, copts, threshold); err != nil {
			return fmt.Errorf("ccp threshold identity: %w", err)
		}
		if err := c.SeededIdentical(q, copts); err != nil {
			return fmt.Errorf("ccp seeded identity: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(aux))
	if err := c.PermutationInvariant(q, opts, rng.Perm(n)); err != nil {
		return fmt.Errorf("permutation invariance: %w", err)
	}
	if !leftDeep && q.Graph != nil && q.Graph.Connected(bitset.Full(n)) {
		copts := opts
		copts.Enumerator = core.EnumeratorCCP
		if err := c.PermutationInvariant(q, copts, rng.Perm(n)); err != nil {
			return fmt.Errorf("ccp permutation invariance: %w", err)
		}
	}
	if err := c.CacheFaithful(q, opts, rng.Perm(n)); err != nil {
		return fmt.Errorf("cache faithfulness: %w", err)
	}
	if err := c.SnapshotFaithful(q, opts, rng.Perm(n)); err != nil {
		return fmt.Errorf("snapshot faithfulness: %w", err)
	}
	scales := []float64{2, 10, 1e3}
	if err := c.ScalingMonotone(q, opts, scales[int(aux%int64(len(scales)))]); err != nil {
		return fmt.Errorf("scaling monotonicity: %w", err)
	}
	if a, b, ok := freePair(q); ok {
		if err := c.SelectivityOneNeutral(q, opts, a, b); err != nil {
			return fmt.Errorf("selectivity-1 neutrality: %w", err)
		}
	}
	return nil
}

// freePair returns some relation pair not yet joined by a predicate.
func freePair(q core.Query) (int, int, bool) {
	n := len(q.Cards)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if q.Graph == nil || !q.Graph.HasEdge(a, b) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}
