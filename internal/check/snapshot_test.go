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

// SnapshotFaithful must accept the real optimizer across random queries,
// permutations, and models: the snapshot codec is lossless for every plan the
// optimizer actually produces.
func TestSnapshotFaithfulAcceptsRealOptimizer(t *testing.T) {
	var c check.Checker
	rng := rand.New(rand.NewSource(31))
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
		if err := c.SnapshotFaithful(q, opts, rng.Perm(n)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// The mutant direction: an optimizer whose stored results are wrong must be
// caught after the round trip — the snapshot must not launder a bad entry
// into looking cold-equivalent.
func TestSnapshotFaithfulCatchesBrokenOptimizer(t *testing.T) {
	q := chainQuery()
	perm := []int{2, 0, 3, 1}

	calls := 0
	c := check.Checker{Optimizer: tampering(&calls, func(_ core.Query, _ core.Options, res *core.Result) {
		res.Cost *= 1.01
	})}
	wantErr(t, c.SnapshotFaithful(q, core.Options{}, perm), "restored")
	if calls == 0 {
		t.Fatal("mutant optimizer never ran")
	}

	// Corrupt only the stored (first) run: the restored serve must disagree
	// with the cold comparison run.
	calls = 0
	firstCall := true
	c = check.Checker{Optimizer: func(cq core.Query, opts core.Options) (*core.Result, error) {
		calls++
		res, err := core.Optimize(cq, opts)
		if err == nil && firstCall {
			firstCall = false
			res.Cost *= 2
			res.Cardinality *= 2
		}
		return res, err
	}}
	if err := c.SnapshotFaithful(q, core.Options{}, perm); err == nil {
		t.Fatal("SnapshotFaithful accepted a corrupted stored entry")
	}
	if calls == 0 {
		t.Fatal("mutant optimizer never ran")
	}
}

// Error plumbing: bad arguments and failing optimizers must surface as
// errors (or documented vacuous passes), never silent acceptance.
func TestSnapshotFaithfulErrorPaths(t *testing.T) {
	q := chainQuery()
	perm := []int{2, 0, 3, 1}

	var c check.Checker
	if err := c.SnapshotFaithful(q, core.Options{}, []int{0, 1}); err == nil {
		t.Error("mismatched permutation length accepted")
	}

	// An optimizer that fails outright (not ErrNoPlan) must propagate.
	c = check.Checker{Optimizer: func(core.Query, core.Options) (*core.Result, error) {
		return nil, errors.New("stored run exploded")
	}}
	wantErr(t, c.SnapshotFaithful(q, core.Options{}, perm), "stored run exploded")

	// ErrNoPlan on the stored run is a vacuous pass: nothing was cached, so
	// there is nothing to snapshot.
	c = check.Checker{Optimizer: func(core.Query, core.Options) (*core.Result, error) {
		return nil, core.ErrNoPlan
	}}
	if err := c.SnapshotFaithful(q, core.Options{}, perm); err != nil {
		t.Errorf("stored ErrNoPlan should pass vacuously: %v", err)
	}

	// A cold comparison run that errors after a good stored run fails the
	// check rather than being swallowed.
	calls := 0
	c = check.Checker{Optimizer: func(cq core.Query, opts core.Options) (*core.Result, error) {
		calls++
		if calls > 1 {
			return nil, errors.New("cold run exploded")
		}
		return core.Optimize(cq, opts)
	}}
	wantErr(t, c.SnapshotFaithful(q, core.Options{}, perm), "cold run exploded")
	if calls < 2 {
		t.Fatalf("cold comparison never ran (calls = %d)", calls)
	}

	// A cold run that finds no plan where the restored cache serves one is
	// the poisoned-hit direction.
	calls = 0
	noPlanCold := func(cq core.Query, opts core.Options) (*core.Result, error) {
		calls++
		if calls > 1 {
			return nil, core.ErrNoPlan
		}
		return core.Optimize(cq, opts)
	}
	c = check.Checker{Optimizer: noPlanCold}
	wantErr(t, c.SnapshotFaithful(q, core.Options{}, perm), "no plan")

	// ... unless the served cost sits near the overflow acceptance boundary,
	// where cold refusal vs stored acceptance is legitimate rounding.
	base := optimize(t, q, core.Options{})
	calls = 0
	c = check.Checker{Optimizer: noPlanCold}
	if err := c.SnapshotFaithful(q, core.Options{OverflowLimit: base.Cost * 2}, perm); err != nil {
		t.Errorf("near-boundary no-plan disagreement should not be judged: %v", err)
	}

	// A cold run whose cost disagrees with the restored serve must be caught.
	calls = 0
	c = check.Checker{Optimizer: func(cq core.Query, opts core.Options) (*core.Result, error) {
		calls++
		res, err := core.Optimize(cq, opts)
		if err == nil && calls > 1 {
			res.Cost *= 3
		}
		return res, err
	}}
	wantErr(t, c.SnapshotFaithful(q, core.Options{}, perm), "disagrees")
}
