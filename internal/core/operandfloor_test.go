package core

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/plan"
)

// TestOperandFloorSkipIsExact: a pass under a threshold above the optimum
// (the greedy seed's margin, ×(1+1e-9), survives the pass's strict
// comparisons) returns the unthresholded run's plan with bit-identical numbers
// at every node, in one pass, under every model and fill: serial, parallel,
// left-deep and CCP. Under κsm the operand-floor skip must fire on some of
// these queries and save loop iterations. Under κdnl, which has no operand
// floor in any per-set column, a skip by cardinality fails this test.
func TestOperandFloorSkipIsExact(t *testing.T) {
	models := []cost.Model{cost.Naive{}, cost.SortMerge{}, cost.NewDiskNestedLoops(),
		cost.NewHashJoin(), cost.NewMin(cost.SortMerge{}, cost.NewDiskNestedLoops())}
	rng := rand.New(rand.NewSource(2502))
	var smSkips, smSaved uint64
	for trial := 0; trial < 300; trial++ {
		q := randomQuery(rng, 3+rng.Intn(8), rng.Float64())
		for i := range q.Cards {
			q.Cards[i] = math.Floor(math.Exp(rng.Float64() * math.Log(1e5)))
		}
		m := models[trial%len(models)]
		variants := []Options{{Model: m}, {Model: m, Parallelism: 2}, {Model: m, LeftDeep: true}}
		if q.Graph.Connected(bitset.Full(len(q.Cards))) {
			variants = append(variants, Options{Model: m, Enumerator: EnumeratorCCP})
		}
		for _, opts := range variants {
			base, err := Optimize(q, opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, factor := range []float64{1 + 1e-9, 1.5, 10} {
				th := opts
				th.CostThreshold = base.Cost * factor
				if th.CostThreshold == 0 {
					continue
				}
				got, err := Optimize(q, th)
				if err != nil {
					t.Fatalf("trial %d (%s, %+v, ×%v): %v", trial, m.Name(), opts, factor, err)
				}
				if got.Counters.Passes != 1 {
					t.Fatalf("trial %d (%s, ×%v): %d passes, want 1", trial, m.Name(), factor, got.Counters.Passes)
				}
				if err := bitsEqual(base.Plan, got.Plan); err != nil {
					t.Fatalf("trial %d (%s, %+v, ×%v): %v", trial, m.Name(), opts, factor, err)
				}
				if _, sm := m.(cost.SortMerge); sm {
					smSkips += got.Counters.ThresholdSkips
					smSaved += base.Counters.LoopIters - got.Counters.LoopIters
				}
			}
		}
	}
	if smSkips == 0 || smSaved == 0 {
		t.Fatalf("κsm under thresholds skipped %d sets and saved %d loop iterations; want both > 0", smSkips, smSaved)
	}
}

// bitsEqual demands the same tree, orientation included, with bit-equal
// cardinalities and costs.
func bitsEqual(a, b *plan.Node) error {
	if a.Set != b.Set || a.IsLeaf() != b.IsLeaf() ||
		math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return &planDiff{a, b}
	}
	if a.IsLeaf() {
		return nil
	}
	if err := bitsEqual(a.Left, b.Left); err != nil {
		return err
	}
	return bitsEqual(a.Right, b.Right)
}

type planDiff struct{ a, b *plan.Node }

func (d *planDiff) Error() string {
	return "plans differ at " + d.a.Set.String() + ":\n" + d.a.String() + "\nvs\n" + d.b.String()
}

// TestOperandFloorSparesFullSet and the unthresholded case, on a 10-way
// Cartesian product of 10⁵-row relations under κsm: every set of eight or
// more relations has a memo beyond the single-precision overflow limit, the
// full set's far beyond any plan's cost. Unthresholded, nothing is skipped
// and the counters keep their closed forms (κ′sm ≡ 0, so the paper's
// algorithm skips nothing). Under a threshold of twice the optimum the
// operand floor skips sets, yet the full set is still searched: one pass,
// the same plan.
func TestOperandFloorSparesFullSet(t *testing.T) {
	const n = 10
	q := Query{Cards: make([]float64, n)}
	for i := range q.Cards {
		q.Cards[i] = 1e5
	}
	if m := (cost.SortMerge{}).Memo(1e40); m <= math.MaxFloat32 {
		t.Fatalf("memo of an 8-relation set is %v, want beyond the overflow limit", m)
	}
	base, err := Optimize(q, Options{Model: cost.SortMerge{}})
	if err != nil {
		t.Fatal(err)
	}
	c := base.Counters
	pow3 := uint64(math.Pow(3, n))
	if c.ThresholdSkips != 0 || c.Passes != 1 || c.SubsetsVisited != 1<<n-n-1 || c.LoopIters != pow3-1<<(n+1)+1 {
		t.Fatalf("unthresholded κsm counters %+v, want no skips and closed-form counts", c)
	}
	got, err := Optimize(q, Options{Model: cost.SortMerge{}, CostThreshold: 2 * base.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.Passes != 1 || got.Counters.ThresholdSkips == 0 {
		t.Fatalf("thresholded κsm counters %+v, want one pass with skips", got.Counters)
	}
	if err := bitsEqual(base.Plan, got.Plan); err != nil {
		t.Fatal(err)
	}
}
