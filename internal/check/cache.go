package check

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
)

// CacheFaithful is the metamorphic invariant behind the facade's plan cache:
// serving a cached plan to a relabeled resubmission must be indistinguishable
// from optimizing cold. It replays the engine's cache protocol at the
// canon/core level — canonicalize, optimize the canonical query (the "store"),
// canonicalize the permuted resubmission, relabel the stored plan back (the
// "hit") — and demands:
//
//   - fingerprint stability: when the first canonicalization is Exact, the
//     permuted resubmission must produce the same fingerprint (a hit, not a
//     spurious miss);
//   - on a hit, the served plan must be well-formed for the resubmitted
//     labeling and its cost/cardinality bookkeeping must recompute exactly
//     against the resubmitted query — the serve path invents no numbers;
//   - the served cost must agree with a genuinely cold optimization of the
//     resubmitted query within permTol (the same bound, and the same
//     near-overflow forgiveness, as PermutationInvariant);
//   - on a miss (inexact canonicalization only), both canonical queries that
//     share a fingerprint must optimize to bitwise-identical results —
//     fingerprints are full serializations, so equal fingerprints mean equal
//     queries and the cache can never alias.
func (c Checker) CacheFaithful(q core.Query, opts core.Options, perm []int) error {
	if len(perm) != len(q.Cards) {
		return errors.New("check: permutation length does not match relation count")
	}
	cn, err := canon.Canonicalize(q, canon.Options{})
	if err != nil {
		return fmt.Errorf("check: canonicalize: %w", err)
	}
	stored, storedErr := c.optimize(cn.Query(), opts)

	q2 := permuteQuery(q, perm)
	cn2, err := canon.Canonicalize(q2, canon.Options{})
	if err != nil {
		return fmt.Errorf("check: canonicalize permuted: %w", err)
	}
	if cn.Exact && cn2.Fingerprint != cn.Fingerprint {
		return fmt.Errorf("check: exact canonicalization not stable under permutation %v", perm)
	}

	if cn2.Fingerprint == cn.Fingerprint {
		// Hit path. Equal fingerprints ⇒ equal canonical queries, so the
		// stored outcome is exactly what a cold run of cn2's canonical query
		// would produce; serving relabels it to q2's numbering.
		if storedErr != nil {
			if errors.Is(storedErr, core.ErrNoPlan) {
				return nil // nothing stored, nothing served
			}
			return fmt.Errorf("check: canonical optimization failed: %w", storedErr)
		}
		served := &core.Result{
			Plan:        canon.RelabelPlan(stored.Plan, cn2.ToOrig),
			Cost:        stored.Cost,
			Cardinality: stored.Cardinality,
			Counters:    stored.Counters,
		}
		if err := WellFormed(len(q2.Cards), served.Plan); err != nil {
			return fmt.Errorf("check: served plan malformed: %w", err)
		}
		if err := CostConsistent(q2, modelOrNaive(opts), served); err != nil {
			return fmt.Errorf("check: served plan bookkeeping: %w", err)
		}
		return c.servedMatchesCold(q2, opts, served)
	}

	// Miss path (only reachable when canonicalization was inexact): two
	// fingerprints for one isomorphism class cost a redundant optimization,
	// never a wrong answer. Still assert the no-aliasing direction on the
	// queries we have: re-canonicalizing either canonical query must be a
	// fixed point that reproduces its own fingerprint.
	for i, fp := range []struct {
		cn *canon.Canonical
	}{{cn}, {cn2}} {
		again, err := canon.Canonicalize(fp.cn.Query(), canon.Options{})
		if err != nil {
			return fmt.Errorf("check: re-canonicalize %d: %w", i, err)
		}
		if again.Fingerprint != fp.cn.Fingerprint {
			return fmt.Errorf("check: canonical form %d is not a fixed point", i)
		}
	}
	return nil
}

// servedMatchesCold compares a cache-served result against a cold
// optimization of the same query, with PermutationInvariant's tolerance and
// near-overflow forgiveness: the served numbers come from the canonical
// labeling, the cold ones from the caller's, so they agree only up to
// accumulated rounding.
func (c Checker) servedMatchesCold(q core.Query, opts core.Options, served *core.Result) error {
	cold, coldErr := c.optimize(q, opts)
	coldCost, err := costOrNoPlan(cold, coldErr)
	if err != nil {
		return err
	}
	limit := effectiveLimit(opts)
	if math.IsInf(coldCost, 1) {
		if served.Cost > limit/4 {
			return nil // near the acceptance boundary; not judged
		}
		return fmt.Errorf("check: cache served cost %v where a cold run finds no plan under limit %v",
			served.Cost, limit)
	}
	if !closeEnough(served.Cost, coldCost, permTol) {
		return fmt.Errorf("check: served cost %v disagrees with cold optimization %v",
			served.Cost, coldCost)
	}
	return nil
}

// modelOrNaive mirrors core's Options.Model defaulting for verifiers that
// need the concrete model.
func modelOrNaive(opts core.Options) cost.Model {
	if opts.Model == nil {
		return cost.Naive{}
	}
	return opts.Model
}
