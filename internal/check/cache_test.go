package check_test

import (
	"errors"
	"math/rand"
	"testing"

	"blitzsplit/internal/check"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
)

// CacheFaithful must accept the real optimizer across a sweep of random
// queries, permutations, and models — including symmetric shapes where
// canonicalization falls back to individualization.
func TestCacheFaithfulAcceptsRealOptimizer(t *testing.T) {
	var c check.Checker
	rng := rand.New(rand.NewSource(23))
	models := []cost.Model{cost.Naive{}, cost.SortMerge{}, cost.NewDiskNestedLoops()}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = float64(rng.Intn(10000) + 1)
		}
		g := joingraph.New(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					g.MustAddEdge(a, b, rng.Float64())
				}
			}
		}
		q := core.Query{Cards: cards, Graph: g}
		opts := core.Options{Model: models[trial%len(models)]}
		if err := c.CacheFaithful(q, opts, rng.Perm(n)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Fully symmetric star: equal satellites tie, individualization breaks
	// them on an automorphism orbit — still a guaranteed hit path.
	g := joingraph.New(5)
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, i, 0.01)
	}
	q := core.Query{Cards: []float64{10000, 50, 50, 50, 50}, Graph: g}
	if err := c.CacheFaithful(q, core.Options{}, []int{4, 3, 2, 1, 0}); err != nil {
		t.Fatalf("symmetric star: %v", err)
	}
}

// The mutant direction: an optimizer whose canonical-run results are wrong
// must be caught — either by the served plan's bookkeeping or by the
// cold-run comparison.
func TestCacheFaithfulCatchesBrokenOptimizer(t *testing.T) {
	q := chainQuery()
	perm := []int{2, 0, 3, 1}

	// Inflated cost: served bookkeeping no longer recomputes.
	calls := 0
	c := check.Checker{Optimizer: tampering(&calls, func(_ core.Query, _ core.Options, res *core.Result) {
		res.Cost *= 1.01
	})}
	wantErr(t, c.CacheFaithful(q, core.Options{}, perm), "served")
	if calls == 0 {
		t.Fatal("mutant optimizer never ran")
	}

	// Swapped children on the root: still well-formed and (for symmetric
	// models) cost-consistent under recomputation — but labeling-dependent
	// optimizers are exactly what the cold comparison exists to catch. Here
	// the mutant returns a wrong (suboptimal) plan only for canonical-looking
	// inputs, so the served cost disagrees with the cold run.
	calls = 0
	firstCall := true
	c = check.Checker{Optimizer: func(cq core.Query, opts core.Options) (*core.Result, error) {
		calls++
		res, err := core.Optimize(cq, opts)
		if err == nil && firstCall {
			firstCall = false
			// Corrupt only the stored (first, canonical) run: double its
			// reported cost and cardinality consistently with nothing.
			res.Cost *= 2
			res.Cardinality *= 2
		}
		return res, err
	}}
	if err := c.CacheFaithful(q, core.Options{}, perm); err == nil {
		t.Fatal("CacheFaithful accepted a corrupted stored entry")
	}
	if calls == 0 {
		t.Fatal("mutant optimizer never ran")
	}
}

// Error plumbing for CacheFaithful, mirroring SnapshotFaithful's: argument
// validation and optimizer failures must not pass silently.
func TestCacheFaithfulErrorPaths(t *testing.T) {
	q := chainQuery()
	perm := []int{2, 0, 3, 1}

	var c check.Checker
	if err := c.CacheFaithful(q, core.Options{}, []int{0}); err == nil {
		t.Error("mismatched permutation length accepted")
	}

	c = check.Checker{Optimizer: func(core.Query, core.Options) (*core.Result, error) {
		return nil, errors.New("stored run exploded")
	}}
	wantErr(t, c.CacheFaithful(q, core.Options{}, perm), "stored run exploded")

	c = check.Checker{Optimizer: func(core.Query, core.Options) (*core.Result, error) {
		return nil, core.ErrNoPlan
	}}
	if err := c.CacheFaithful(q, core.Options{}, perm); err != nil {
		t.Errorf("stored ErrNoPlan should pass vacuously: %v", err)
	}
}
