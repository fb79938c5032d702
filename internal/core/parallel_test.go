package core

import (
	"math"
	"reflect"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// parallelCrossQueries builds the cross-check suite: a pure Cartesian
// product plus every Appendix topology at the given n, under each paper
// cost model.
func parallelCrossQueries(n int) map[string]struct {
	q Query
	m cost.Model
} {
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	out := map[string]struct {
		q Query
		m cost.Model
	}{}
	for _, m := range cost.PaperModels() {
		out["cartesian/"+m.Name()] = struct {
			q Query
			m cost.Model
		}{Query{Cards: cards}, m}
		for _, topo := range joingraph.AllTopologies {
			g := joingraph.Build(topo.Edges(n), cards)
			out[topo.String()+"/"+m.Name()] = struct {
				q Query
				m cost.Model
			}{Query{Cards: cards, Graph: g}, m}
		}
	}
	return out
}

// samePlan reports whether two plan trees are structurally identical with
// bit-equal cardinalities and costs.
func samePlan(a, b *plan.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Set == b.Set && a.Card == b.Card && a.Cost == b.Cost &&
		samePlan(a.Left, b.Left) && samePlan(a.Right, b.Right)
}

// TestParallelMatchesSerial is the bit-identity cross-check the parallel
// schedule promises: for every topology and paper model at n = 12, the
// layer-parallel fill at 1, 2 and 8 workers must produce the same Plan, the
// same Cost (bit-equal), and the same summed counters (KppEvals, LoopIters,
// and the rest) as the serial numeric-order fill.
func TestParallelMatchesSerial(t *testing.T) {
	const n = 12
	for name, tc := range parallelCrossQueries(n) {
		serial, err := Optimize(tc.q, Options{Model: tc.m})
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := Optimize(tc.q, Options{Model: tc.m, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if par.Cost != serial.Cost {
				t.Errorf("%s/workers=%d: cost %v, serial %v", name, workers, par.Cost, serial.Cost)
			}
			if !samePlan(par.Plan, serial.Plan) {
				t.Errorf("%s/workers=%d: plan differs from serial\nparallel: %v\nserial:   %v",
					name, workers, par.Plan, serial.Plan)
			}
			if !reflect.DeepEqual(par.Counters, serial.Counters) {
				t.Errorf("%s/workers=%d: counters %+v, serial %+v", name, workers, par.Counters, serial.Counters)
			}
			// The whole table must match, not just the extracted plan.
			for s := bitset.Set(1); s <= bitset.Full(n); s++ {
				if par.Table.Cost(s) != serial.Table.Cost(s) || par.Table.BestLHS(s) != serial.Table.BestLHS(s) ||
					par.Table.Card(s) != serial.Table.Card(s) {
					t.Fatalf("%s/workers=%d: table diverges at %v", name, workers, s)
				}
			}
		}
	}
}

// TestParallelMatchesSerialModes covers the non-default fill modes and the
// multi-pass threshold path under the parallel schedule.
func TestParallelMatchesSerialModes(t *testing.T) {
	const n = 11
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	g := joingraph.Build(joingraph.TopoCyclePlus3.Edges(n), cards)
	q := Query{Cards: cards, Graph: g}
	base := Options{Model: cost.NewDiskNestedLoops()}
	variants := map[string]Options{
		"leftdeep":   {Model: base.Model, LeftDeep: true},
		"descending": {Model: base.Model, DescendingSubsets: true},
		"nonested":   {Model: base.Model, DisableNestedIfs: true},
		"threshold":  {Model: base.Model, CostThreshold: 1e3}, // forces re-optimization passes
	}
	for name, opts := range variants {
		serial, serr := Optimize(q, opts)
		popts := opts
		popts.Parallelism = 4
		par, perr := Optimize(q, popts)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("%s: error mismatch: serial %v, parallel %v", name, serr, perr)
		}
		if serr != nil {
			continue
		}
		if par.Cost != serial.Cost || !samePlan(par.Plan, serial.Plan) {
			t.Errorf("%s: parallel plan/cost differ from serial", name)
		}
		if !reflect.DeepEqual(par.Counters, serial.Counters) {
			t.Errorf("%s: counters %+v, serial %+v", name, par.Counters, serial.Counters)
		}
	}
}

// TestParallelFillRace exercises the 8-worker fill on a clique for the race
// detector (run via `go test -race -run Parallel ./internal/core/...`, the
// pre-merge gate). The assertions are secondary; the point is the schedule
// itself under -race.
func TestParallelFillRace(t *testing.T) {
	const n = 13
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	g := joingraph.Build(joingraph.TopoClique.Edges(n), cards)
	q := Query{Cards: cards, Graph: g}
	arena := NewArena(0)
	for i := 0; i < 3; i++ { // reuse across repeats, like the harness does
		res, err := Optimize(q, Options{Model: cost.NewDiskNestedLoops(), Parallelism: 8, DiscardTable: true, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != nil {
			t.Fatal("DiscardTable left the table attached")
		}
		if math.IsInf(res.Cost, 1) {
			t.Fatal("no plan found")
		}
	}
}

// TestTableReuseMatchesFresh drives one arena through a sequence of queries
// of different sizes, graph shapes and models, checking each result against
// a fresh-table Optimize.
func TestTableReuseMatchesFresh(t *testing.T) {
	arena := NewArena(0)
	type step struct {
		name string
		q    Query
		opts Options
	}
	mk := func(name string, n int, topo *joingraph.Topology, m cost.Model, par int) step {
		cards := joingraph.CardinalityLadder(n, 100, 0.5)
		var g *joingraph.Graph
		if topo != nil {
			g = joingraph.Build(topo.Edges(n), cards)
		}
		return step{name, Query{Cards: cards, Graph: g}, Options{Model: m, Parallelism: par}}
	}
	chain, clique := joingraph.TopoChain, joingraph.TopoClique
	steps := []step{
		mk("big-clique-dnl", 11, &clique, cost.NewDiskNestedLoops(), 0),
		mk("small-cartesian-naive", 5, nil, nil, 0),               // shrink: stale big-table entries must not leak
		mk("chain-sortmerge", 9, &chain, cost.SortMerge{}, 2),     // memo column gained
		mk("cartesian-dnl", 9, nil, cost.NewDiskNestedLoops(), 0), // fan+memo columns dropped
		mk("grow-again", 12, &chain, cost.SortMerge{}, 4),
	}
	for _, st := range steps {
		fresh, ferr := Optimize(st.q, st.opts)
		ropts := st.opts
		ropts.Arena, ropts.DiscardTable = arena, true
		reused, rerr := Optimize(st.q, ropts)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("%s: error mismatch: fresh %v, reused %v", st.name, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if reused.Cost != fresh.Cost || !samePlan(reused.Plan, fresh.Plan) ||
			!reflect.DeepEqual(reused.Counters, fresh.Counters) {
			t.Errorf("%s: reused-table result differs from fresh", st.name)
		}
	}
	// Every step after the first fits the first step's 11-relation table,
	// except grow-again, which needs a larger one.
	if got := arena.Stats().Reuses; got != 3 {
		t.Fatalf("arena reuses = %d, want 3", got)
	}
}

// TestDiscardTable pins the retention contract: by default the Result keeps
// the table; with DiscardTable it does not, while the plan stays usable.
func TestDiscardTable(t *testing.T) {
	q := Query{Cards: []float64{10, 20, 30, 40}}
	keep, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if keep.Table == nil {
		t.Fatal("default run should retain the table")
	}
	drop, err := Optimize(q, Options{DiscardTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if drop.Table != nil {
		t.Fatal("DiscardTable run should not retain the table")
	}
	if drop.Plan == nil || drop.Cost != keep.Cost {
		t.Fatal("discarding the table must not affect the plan or cost")
	}
}
