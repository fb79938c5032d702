package core_test

import (
	"math/rand"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/workload"
)

// TestTableReuseAcrossSizesAndModels drives one pooled Table through a
// sequence of queries with changing relation counts — shrinking and growing
// back within the first query's size — and changing cost models (memoized
// and not, graph and pure product). After every run, the result must be
// indistinguishable from a fresh-table run: bitwise-equal cost, cardinality,
// plan, and counters. A Reset that leaks any stale column — costs, cards,
// fans, memo values, or best-split indexes — from a previous, larger query
// shows up as a divergence here, because the fresh table never saw that
// query.
func TestTableReuseAcrossSizesAndModels(t *testing.T) {
	steps := []struct {
		n     int
		model cost.Model
		opts  core.Options
	}{
		{9, cost.SortMerge{}, core.Options{}},          // big, memoized model
		{4, cost.Naive{}, core.Options{}},              // shrink: stale entries above 2⁴ must vanish
		{4, cost.NewDiskNestedLoops(), core.Options{}}, // same n, different model
		{6, cost.NewMin(cost.SortMerge{}, cost.NewDiskNestedLoops()), core.Options{}},
		{1, cost.Naive{}, core.Options{}},                     // degenerate single relation
		{5, cost.SortMerge{}, core.Options{Parallelism: 4}},   // regrow under the parallel fill
		{5, cost.NewHashJoin(), core.Options{LeftDeep: true}}, // same n, restricted space
		{8, cost.SortMerge{}, core.Options{CostThreshold: 1e3}},
		{3, cost.Naive{}, core.Options{}},
	}
	rng := rand.New(rand.NewSource(23))
	arena := core.NewArena(0)
	for i, step := range steps {
		c := workload.RandomCase(rng, step.n, 1, 1e3)
		q := core.Query{Cards: c.Cards, Graph: c.Graph}
		opts := step.opts
		opts.Model = step.model

		ropts := opts
		ropts.Arena, ropts.DiscardTable = arena, true
		reused, reusedErr := core.Optimize(q, ropts)
		fresh, freshErr := core.Optimize(q, opts)
		if err := check.EquivalentResults(reused, reusedErr, fresh, freshErr, true); err != nil {
			t.Fatalf("step %d (n=%d, model=%s): reused table diverges from fresh: %v",
				i, step.n, step.model.Name(), err)
		}
	}
	if got, want := arena.Stats().Reuses, uint64(len(steps)-1); got != want {
		t.Fatalf("arena reuses = %d, want %d: the steps did not share one table", got, want)
	}
}

// TestTableReuseShrinkDoesNotLeakCosts is a directed stale-entry probe: fill
// a table with a query whose subset costs are all enormous, shrink to a
// subset-count that reuses the same physical slots, and verify every
// reachable cost and cardinality equals the fresh table's value slot by
// slot.
func TestTableReuseShrinkDoesNotLeakCosts(t *testing.T) {
	huge := core.Query{Cards: []float64{1e6, 1e6, 1e6, 1e6, 1e6, 1e6}}
	arena := core.NewArena(0)
	if _, err := core.Optimize(huge, core.Options{Arena: arena, DiscardTable: true}); err != nil {
		t.Fatal(err)
	}

	small := core.Query{Cards: []float64{2, 3, 4}}
	reused, err := core.Optimize(small, core.Options{Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	defer arena.Put(reused.Table)
	if got := arena.Stats().Reuses; got != 1 {
		t.Fatalf("arena reuses = %d, want 1: the small run did not reuse the huge run's table", got)
	}
	fresh, err := core.Optimize(small, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.EquivalentResults(reused, nil, fresh, nil, true); err != nil {
		t.Fatal(err)
	}
	for set := bitset.Set(1); set < 1<<3; set++ {
		if reused.Table.Cost(set) != fresh.Table.Cost(set) {
			t.Fatalf("slot %v: reused cost %v, fresh %v", set, reused.Table.Cost(set), fresh.Table.Cost(set))
		}
		if reused.Table.Card(set) != fresh.Table.Card(set) {
			t.Fatalf("slot %v: reused card %v, fresh %v", set, reused.Table.Card(set), fresh.Table.Card(set))
		}
	}
}
