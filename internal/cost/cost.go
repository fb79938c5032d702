// Package cost implements the dyadic-join cost models of the paper (§3.1 and
// Appendix), each decomposed — as §3.2 prescribes — into a split-independent
// component κ′ (a function of the output cardinality only) and a
// split-dependent component κ″:
//
//	κ(Rout, Rlhs, Rrhs) = κ′(Rout) + κ″(Rout, Rlhs, Rrhs)
//
// The optimizer evaluates κ′ once per relation set (2^n times total) and κ″
// inside the split loop guarded by nested ifs, so a decomposition in which κ″
// is cheap and small is what makes blitzsplit fast. All models here keep κ″
// nonnegative, which the nested-if pruning relies on.
//
// The models follow Steinbrunn, Moerkotte & Kemper (as cited by the paper):
// the naive model κ0, a sort-merge model κsm, and a disk-nested-loops model
// κdnl (in the paper's reformulation with blocking factor K and memory M).
// Extensions: a GRACE-style hash-join model and a Min composite that models
// the availability of multiple join algorithms (§6.5).
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Model is a decomposed cost function for one dyadic join operator.
// Cardinalities are abstract-interpretation values (§3.1): the model never
// sees tuples, only estimated sizes.
type Model interface {
	// Name identifies the model (naive, sortmerge, dnl, …).
	Name() string
	// SplitIndep is κ′(|Rout|): the part of the join cost that every split of
	// a relation set shares, evaluated once per set, outside the split loop.
	SplitIndep(outCard float64) float64
	// SplitDep is κ″(|Rout|, |Rlhs|, |Rrhs|): the split-dependent remainder,
	// evaluated inside the loop (only for competitive splits). Must be ≥ 0.
	SplitDep(outCard, lhsCard, rhsCard float64) float64
}

// Memoized is implemented by models whose κ″ depends on each operand only
// through a per-operand value that the optimizer can cache in its DP table —
// the paper's observation that sort-merge's "expensive logarithm computation
// … can be memoized in the dynamic programming table" (Appendix).
type Memoized interface {
	Model
	// Memo maps an intermediate-result cardinality to the cached per-set
	// value (for sort-merge, |R|·(1+log|R|)).
	Memo(card float64) float64
	// SplitDepFromMemo recomputes κ″ from the cached operand values.
	SplitDepFromMemo(outCard, lhsMemo, rhsMemo float64) float64
}

// Total is κ = κ′ + κ″, for callers that want the undecomposed cost.
func Total(m Model, outCard, lhsCard, rhsCard float64) float64 {
	return m.SplitIndep(outCard) + m.SplitDep(outCard, lhsCard, rhsCard)
}

// Naive is the §3.1 model κ0(Rout, Rlhs, Rrhs) = |Rout|: the cost of a join
// is the cardinality of its result. Decomposition: κ′ = |Rout|, κ″ = 0 — the
// best case for blitzsplit, since the split loop does no cost arithmetic.
type Naive struct{}

// Name implements Model.
func (Naive) Name() string { return "naive" }

// SplitIndep implements Model: κ′0 = |Rout|.
func (Naive) SplitIndep(outCard float64) float64 { return outCard }

// SplitDep implements Model: κ″0 = 0.
func (Naive) SplitDep(outCard, lhsCard, rhsCard float64) float64 { return 0 }

// SortMerge is the Appendix model
//
//	κsm = |Rlhs|·(1+log|Rlhs|) + |Rrhs|·(1+log|Rrhs|)
//
// (natural log). Decomposition: κ′ = 0 — the whole cost is split-dependent —
// which makes κsm a stress test for the nested-if pruning. The per-operand
// term is memoizable (Memoized).
//
// For cardinalities below 1 (possible for intermediate results under strong
// selectivities) the log term is clamped at 0 so the cost stays nonnegative.
type SortMerge struct{}

// Name implements Model.
func (SortMerge) Name() string { return "sortmerge" }

// SplitIndep implements Model: κ′sm = 0.
func (SortMerge) SplitIndep(outCard float64) float64 { return 0 }

// SplitDep implements Model.
func (m SortMerge) SplitDep(outCard, lhsCard, rhsCard float64) float64 {
	return m.Memo(lhsCard) + m.Memo(rhsCard)
}

// Memo implements Memoized: |R|·(1+log|R|), clamped so cardinalities < 1
// contribute |R| rather than a negative value.
func (SortMerge) Memo(card float64) float64 {
	if card <= 1 {
		return card
	}
	return card * (1 + math.Log(card))
}

// SplitDepFromMemo implements Memoized.
func (SortMerge) SplitDepFromMemo(outCard, lhsMemo, rhsMemo float64) float64 {
	return lhsMemo + rhsMemo
}

// DiskNestedLoops is the paper's reformulated disk-nested-loops model:
//
//	κdnl = 2·|Rout|/K + |Rlhs|·|Rrhs|/(K²·(M−1)) + min(|Rlhs|,|Rrhs|)/K
//
// where K is the blocking factor (records per disk block) and M the number of
// blocks that fit in main memory. The paper's measurements set K = 10,
// M = 100 (the defaults here; see NewDiskNestedLoops). Decomposition:
// κ′ = 2·|Rout|/K, κ″ = the remaining two terms.
type DiskNestedLoops struct {
	// K is the blocking factor; must be > 0.
	K float64
	// M is the number of in-memory blocks; must be > 1.
	M float64
}

// NewDiskNestedLoops returns the model with the paper's parameters K=10,
// M=100.
func NewDiskNestedLoops() DiskNestedLoops { return DiskNestedLoops{K: 10, M: 100} }

// Name implements Model.
func (DiskNestedLoops) Name() string { return "dnl" }

// SplitIndep implements Model: κ′dnl = 2|Rout|/K.
func (m DiskNestedLoops) SplitIndep(outCard float64) float64 { return 2 * outCard / m.K }

// SplitDep implements Model: |Rlhs|·|Rrhs|/(K²(M−1)) + min(|Rlhs|,|Rrhs|)/K.
func (m DiskNestedLoops) SplitDep(outCard, lhsCard, rhsCard float64) float64 {
	return lhsCard*rhsCard/(m.K*m.K*(m.M-1)) + math.Min(lhsCard, rhsCard)/m.K
}

// Validate reports whether the parameters are usable.
func (m DiskNestedLoops) Validate() error {
	if !(m.K > 0) {
		return fmt.Errorf("cost: dnl blocking factor K = %v must be > 0", m.K)
	}
	if !(m.M > 1) {
		return fmt.Errorf("cost: dnl memory blocks M = %v must be > 1", m.M)
	}
	return nil
}

// HashJoin is a GRACE-style hash-join model (an extension beyond the paper's
// three): three passes over each operand's blocks plus output writes,
//
//	κhash = 3·(|Rlhs| + |Rrhs|)/K + |Rout|/K.
//
// Decomposition: κ′ = |Rout|/K, κ″ = 3(|Rlhs|+|Rrhs|)/K.
type HashJoin struct {
	// K is the blocking factor; must be > 0.
	K float64
}

// NewHashJoin returns the model with blocking factor 10, matching the dnl
// default.
func NewHashJoin() HashJoin { return HashJoin{K: 10} }

// Name implements Model.
func (HashJoin) Name() string { return "hash" }

// SplitIndep implements Model.
func (m HashJoin) SplitIndep(outCard float64) float64 { return outCard / m.K }

// SplitDep implements Model.
func (m HashJoin) SplitDep(outCard, lhsCard, rhsCard float64) float64 {
	return 3 * (lhsCard + rhsCard) / m.K
}

// Min models the availability of multiple join algorithms (§6.5): the cost of
// a join is the minimum over the component models,
//
//	κ(…) = min(κ1(…), κ2(…), …)
//
// As the paper notes, the optimizer need not track which algorithm wins; a
// single post-optimization plan traversal re-derives it (see the plan
// package's AttachAlgorithms). Because min does not distribute over the
// κ′ + κ″ decomposition, Min is decomposed conservatively with κ′ equal to
// the smallest component κ′ (a lower bound usable for threshold pruning) and
// κ″ the remainder; κ″ remains nonnegative.
type Min struct {
	models []Model
}

// NewMin composes the given models; at least one is required.
func NewMin(models ...Model) Min {
	if len(models) == 0 {
		panic("cost: Min requires at least one component model")
	}
	cp := make([]Model, len(models))
	copy(cp, models)
	return Min{models: cp}
}

// Name implements Model; e.g. "min(sortmerge,dnl)".
func (m Min) Name() string {
	names := make([]string, len(m.models))
	for i, c := range m.models {
		names[i] = c.Name()
	}
	return "min(" + strings.Join(names, ",") + ")"
}

// SplitIndep implements Model: the smallest component κ′, a valid lower bound
// on the total cost's split-independent part.
func (m Min) SplitIndep(outCard float64) float64 {
	best := math.Inf(1)
	for _, c := range m.models {
		if v := c.SplitIndep(outCard); v < best {
			best = v
		}
	}
	return best
}

// SplitDep implements Model: min over components of their total cost, minus
// the shared κ′ lower bound.
func (m Min) SplitDep(outCard, lhsCard, rhsCard float64) float64 {
	best := math.Inf(1)
	for _, c := range m.models {
		if v := c.SplitIndep(outCard) + c.SplitDep(outCard, lhsCard, rhsCard); v < best {
			best = v
		}
	}
	d := best - m.SplitIndep(outCard)
	if d < 0 {
		return 0 // guard against floating rounding; κ″ must stay nonnegative
	}
	return d
}

// Cheapest returns the component model with the lowest total cost for the
// given join, breaking ties in favour of the earliest component. This is the
// single-traversal algorithm-attachment primitive of §6.5.
func (m Min) Cheapest(outCard, lhsCard, rhsCard float64) Model {
	best := m.models[0]
	bestCost := Total(best, outCard, lhsCard, rhsCard)
	for _, c := range m.models[1:] {
		if v := Total(c, outCard, lhsCard, rhsCard); v < bestCost {
			best, bestCost = c, v
		}
	}
	return best
}

// ByName returns the model registered under name. Composite names use the
// form "min(a,b,…)". Names returns the valid base names.
func ByName(name string) (Model, error) {
	if strings.HasPrefix(name, "min(") && strings.HasSuffix(name, ")") {
		inner := strings.TrimSuffix(strings.TrimPrefix(name, "min("), ")")
		parts := strings.Split(inner, ",")
		models := make([]Model, 0, len(parts))
		for _, p := range parts {
			m, err := ByName(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			models = append(models, m)
		}
		if len(models) == 0 {
			return nil, fmt.Errorf("cost: empty min() composite")
		}
		return NewMin(models...), nil
	}
	switch name {
	case "naive", "k0":
		return Naive{}, nil
	case "sortmerge", "sm", "ksm":
		return SortMerge{}, nil
	case "dnl", "kdnl":
		return NewDiskNestedLoops(), nil
	case "hash":
		return NewHashJoin(), nil
	}
	return nil, fmt.Errorf("cost: unknown model %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the registered base model names.
func Names() []string {
	out := []string{"naive", "sortmerge", "dnl", "hash"}
	sort.Strings(out)
	return out
}

// PaperModels returns the three evaluation models of §6.1 in the paper's row
// order: κ0, κsm, κdnl.
func PaperModels() []Model {
	return []Model{Naive{}, SortMerge{}, NewDiskNestedLoops()}
}
