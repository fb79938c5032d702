package check

import (
	"errors"
	"fmt"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// ExecutionAgree is the ground-truth verifier: join order is pure
// optimization, so every well-formed plan over all of inst's relations must
// produce the full join. It counts that join once with CountRows, which uses
// no plan, then executes each plan on the vectorized executor under every
// join algorithm, plus the adaptive driver with a greedy re-optimizer, and
// fails if any execution yields a different row count. An execution whose
// intermediate result exceeds maxRows (0 means the executor's default) is
// skipped: the row limit is a resource guard, not a semantic difference.
func ExecutionAgree(inst *engine.Instance, maxRows int, plans ...*plan.Node) error {
	if len(plans) == 0 {
		return fmt.Errorf("check: no plans to execute")
	}
	want, err := CountRows(inst)
	if err != nil {
		return err
	}
	agree := func(pi int, label string, got int64, err error) error {
		switch {
		case errors.Is(err, engine.ErrRowLimit):
			return nil
		case err != nil:
			return fmt.Errorf("check: executing plan %d under %s: %w", pi, label, err)
		case got != want:
			return fmt.Errorf("check: plan %d under %s produced %d rows, the full join has %d", pi, label, got, want)
		}
		return nil
	}
	opts := exec.Options{MaxRows: maxRows}
	for pi, p := range plans {
		for _, alg := range []engine.JoinAlgorithm{engine.NestedLoopsAlg, engine.HashJoinAlg, engine.SortMergeAlg} {
			opts.Algorithm = alg
			got, err := exec.Count(inst, p, opts)
			if err := agree(pi, alg.String(), got, err); err != nil {
				return err
			}
		}
		// The adaptive driver must be a pure scheduling change: same rows,
		// whatever it replans.
		res, err := exec.RunAdaptive(inst, p, opts, exec.AdaptiveOptions{Reoptimize: greedyReopt})
		var got int64
		if err == nil {
			got = res.Rows
		}
		if err := agree(pi, "adaptive", got, err); err != nil {
			return err
		}
	}
	return nil
}

// greedyReopt backs ExecutionAgree's adaptive pass: plan the group query
// with the greedy left-deep baseline — cheap, deterministic, and guaranteed
// to exist for every group topology.
func greedyReopt(gq exec.GroupQuery) (*plan.Node, error) {
	g := joingraph.New(len(gq.Groups))
	for _, e := range gq.Edges {
		if err := g.AddEdge(e.A, e.B, e.Selectivity); err != nil {
			return nil, err
		}
	}
	res, err := baseline.GreedyLeftDeep(gq.Cards, g, cost.Naive{})
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}
