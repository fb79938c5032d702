package check

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/plancache"
)

// CacheFaithful is the metamorphic invariant behind the facade's plan cache:
// serving a cached plan to a relabeled resubmission must be indistinguishable
// from optimizing cold. It replays the engine's cache protocol at the
// canon/core/plancache level — canonicalize, optimize the canonical query and
// store it in a plan cache (the "store"), canonicalize the permuted
// resubmission, read the shape-only entry back, re-derive its numbers from
// the resubmission's canonical query and relabel it (the "hit") — and
// demands:
//
//   - fingerprint stability: when the first canonicalization is Exact, the
//     permuted resubmission must produce the same fingerprint (a hit, not a
//     spurious miss);
//   - on a hit, every node's re-derived cardinality and cost must equal the
//     stored cold run's bit for bit, the root's included (the engine refuses
//     a hit whose root does not match);
//   - the served plan must be well-formed for the resubmitted labeling and
//     its cost/cardinality bookkeeping must recompute exactly against the
//     resubmitted query — the serve path invents no numbers;
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
		cache := plancache.New(0, 1)
		cache.Put(cn.Fingerprint, entryOf(stored))
		ent, ok := cache.Get(cn2.Fingerprint)
		if !ok {
			return errors.New("check: plan cache misses the stored fingerprint")
		}
		served, err := serveHit(ent, q2, stored, opts)
		if err != nil {
			return err
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

// entryOf is the plan-cache entry the engine stores for a cold result.
func entryOf(res *core.Result) plancache.Entry {
	return plancache.Entry{Plan: res.Plan, Cost: res.Cost, Cardinality: res.Cardinality, Counters: res.Counters}
}

// errNotServed marks an entry whose root does not re-derive to its stored
// numbers: the engine runs such a request cold instead of serving it.
var errNotServed = errors.New("check: entry not served")

// serveHit replays the engine's hit path on an entry read back from a plan
// cache for the resubmission q: canonicalize q into a Canonicalizer, as the
// engine's pooled scratch does, re-derive every node's numbers from the
// canonical cardinalities and predicates (core.AnnotatePlan), and
// relabel the plan to q's numbering. It fails with errNotServed when the
// re-derived root does not match the entry's stored cost and cardinality
// bit for bit, and otherwise when any node differs from stored, the
// canonical cold run the entry was made from.
func serveHit(ent plancache.Entry, q core.Query, stored *core.Result, opts core.Options) (*core.Result, error) {
	var c canon.Canonicalizer
	if err := c.Canonicalize(q, canon.Options{}); err != nil {
		return nil, fmt.Errorf("check: canonicalize resubmission: %w", err)
	}
	if ent.Plan == nil {
		return nil, errors.New("check: served entry has no plan")
	}
	core.AnnotatePlan(ent.Plan, c.Cards(), c.Edges(), opts.Model)
	if math.Float64bits(ent.Plan.Cost) != math.Float64bits(ent.Cost) ||
		math.Float64bits(ent.Plan.Card) != math.Float64bits(ent.Cardinality) {
		return nil, fmt.Errorf("%w: its root re-derives to cost %v, card %v; it holds cost %v, card %v",
			errNotServed, ent.Plan.Cost, ent.Plan.Card, ent.Cost, ent.Cardinality)
	}
	if err := planBitsEqual(stored.Plan, ent.Plan); err != nil {
		return nil, fmt.Errorf("check: served plan re-derives unlike the cold run: %w", err)
	}
	canon.RelabelPlanInPlace(ent.Plan, c.ToOrig())
	return &core.Result{Plan: ent.Plan, Cost: ent.Cost, Cardinality: ent.Cardinality, Counters: ent.Counters}, nil
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
