package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/ccp"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

func TestEnumeratorString(t *testing.T) {
	cases := []struct {
		e    Enumerator
		want string
	}{
		{EnumeratorBlitz, "blitz"},
		{EnumeratorCCP, "ccp"},
		{EnumeratorAuto, "auto"},
		{Enumerator(42), "Enumerator(42)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("Enumerator(%d).String() = %q, want %q", int(c.e), got, c.want)
		}
	}
}

func TestParseEnumerator(t *testing.T) {
	cases := []struct {
		in      string
		want    Enumerator
		wantErr bool
	}{
		{"blitz", EnumeratorBlitz, false},
		{"", EnumeratorBlitz, false},
		{"ccp", EnumeratorCCP, false},
		{"auto", EnumeratorAuto, false},
		{"AUTO", 0, true},
		{"dpccp", 0, true},
	}
	for _, c := range cases {
		got, err := ParseEnumerator(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseEnumerator(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseEnumerator(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// ccpTopologies are the connected shapes the agreement tests sweep. Each
// returns nil when the topology is undefined at n.
var ccpTopologies = []struct {
	name  string
	edges func(n int) []joingraph.Pair
}{
	{"chain", joingraph.AppendixChainEdges},
	{"cycle", func(n int) []joingraph.Pair {
		if n < 3 {
			return nil
		}
		return joingraph.CycleEdges(n)
	}},
	{"star", func(n int) []joingraph.Pair {
		if n < 2 {
			return nil
		}
		return joingraph.StarEdges(n, n-1)
	}},
	{"clique", joingraph.CliqueEdges},
	{"tree", joingraph.TreeEdges},
}

func ccpQuery(edges func(n int) []joingraph.Pair, n int) (Query, bool) {
	pairs := edges(n)
	if n >= 2 && pairs == nil {
		return Query{}, false
	}
	cards := joingraph.CardinalityLadder(n, 1000, 0.8)
	return Query{Cards: cards, Graph: joingraph.Build(pairs, cards)}, true
}

// productFree reports whether every interior node of the plan joins a
// connected relation set — i.e. the plan lives in CCP's search space.
func productFree(g *joingraph.Graph, p *plan.Node) bool {
	ok := true
	p.Walk(func(n *plan.Node) {
		if n.Left != nil && !g.Connected(n.Set) {
			ok = false
		}
	})
	return ok
}

// TestCCPAgreesWithBlitz sweeps topology × n × model and pins the exact
// relationship between the two fills: CCP's cost is never below blitz's
// (its split set is a subset evaluated with identical float operations), and
// whenever blitz's winner is Cartesian-free the two results are bit-identical
// — costs, cardinalities, and the plan itself. Auto must equal explicit CCP
// bit-for-bit on these connected inputs, counters included.
func TestCCPAgreesWithBlitz(t *testing.T) {
	for _, topo := range ccpTopologies {
		for n := 2; n <= 10; n++ {
			q, ok := ccpQuery(topo.edges, n)
			if !ok {
				continue
			}
			for _, m := range cost.PaperModels() {
				name := fmt.Sprintf("%s/n=%d/%s", topo.name, n, m.Name())
				blitz, err := Optimize(q, Options{Model: m, DiscardTable: true})
				if err != nil {
					t.Fatalf("%s: blitz: %v", name, err)
				}
				ccpRes, err := Optimize(q, Options{Model: m, Enumerator: EnumeratorCCP, DiscardTable: true})
				if err != nil {
					t.Fatalf("%s: ccp: %v", name, err)
				}
				auto, err := Optimize(q, Options{Model: m, Enumerator: EnumeratorAuto, DiscardTable: true})
				if err != nil {
					t.Fatalf("%s: auto: %v", name, err)
				}
				if ccpRes.Cost < blitz.Cost {
					t.Errorf("%s: ccp cost %v below blitz cost %v (subset space cannot win)",
						name, ccpRes.Cost, blitz.Cost)
				}
				if ccpRes.Cardinality != blitz.Cardinality {
					t.Errorf("%s: cardinality %v vs %v", name, ccpRes.Cardinality, blitz.Cardinality)
				}
				if productFree(q.Graph, blitz.Plan) {
					if ccpRes.Cost != blitz.Cost {
						t.Errorf("%s: blitz winner is product-free but ccp cost %v != %v",
							name, ccpRes.Cost, blitz.Cost)
					}
					if !ccpRes.Plan.Equal(blitz.Plan) {
						t.Errorf("%s: blitz winner is product-free but plans differ:\n%s\nvs\n%s",
							name, ccpRes.Plan.Expression(nil), blitz.Plan.Expression(nil))
					}
				}
				if auto.Cost != ccpRes.Cost || !auto.Plan.Equal(ccpRes.Plan) || auto.Counters != ccpRes.Counters {
					t.Errorf("%s: auto != explicit ccp on a connected graph", name)
				}
			}
		}
	}
}

// TestCCPSerialParallelIdentical pins the layered CCP schedule to the serial
// one: same plan, same costs, equal merged counter totals.
func TestCCPSerialParallelIdentical(t *testing.T) {
	for _, topo := range ccpTopologies {
		q, ok := ccpQuery(topo.edges, 10)
		if !ok {
			t.Fatalf("%s undefined at n=10", topo.name)
		}
		for _, m := range []cost.Model{cost.Naive{}, cost.SortMerge{}} {
			serial, err := Optimize(q, Options{Model: m, Enumerator: EnumeratorCCP, DiscardTable: true})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", topo.name, m.Name(), err)
			}
			par, err := Optimize(q, Options{Model: m, Enumerator: EnumeratorCCP, Parallelism: 4, DiscardTable: true})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", topo.name, m.Name(), err)
			}
			if serial.Cost != par.Cost || serial.Cardinality != par.Cardinality {
				t.Errorf("%s/%s: serial (%v, %v) vs parallel (%v, %v)",
					topo.name, m.Name(), serial.Cost, serial.Cardinality, par.Cost, par.Cardinality)
			}
			if !serial.Plan.Equal(par.Plan) {
				t.Errorf("%s/%s: serial and parallel plans differ", topo.name, m.Name())
			}
			if serial.Counters != par.Counters {
				t.Errorf("%s/%s: counters %+v vs %+v", topo.name, m.Name(), serial.Counters, par.Counters)
			}
		}
	}
}

// TestCCPLoopItersMatchPairCount cross-checks the optimizer's LoopIters
// against the independent csg–cmp pair count: one single-pass CCP fill
// performs exactly two split evaluations per unordered pair. It also pins
// which subsets the fill visits — every connected non-singleton subset once,
// by the BFS reference — for tables smaller than one bitmap word (n < 6),
// exactly one word (n = 6) and several words, in both schedules.
func TestCCPLoopItersMatchPairCount(t *testing.T) {
	for _, topo := range ccpTopologies {
		for _, n := range []int{2, 3, 5, 6, 7, 9} {
			q, ok := ccpQuery(topo.edges, n)
			if !ok {
				continue
			}
			adj := ccp.GraphAdjacency(q.Graph)
			var connected uint64
			for s := bitset.Set(3); s < bitset.Set(1)<<uint(n); s++ {
				if s&(s-1) != 0 && adj.Connected(s) {
					connected++
				}
			}
			want := 2 * adj.CountCsgCmpPairs()
			for _, par := range []int{0, 2} {
				res, err := Optimize(q, Options{Enumerator: EnumeratorCCP, Parallelism: par, DiscardTable: true})
				if err != nil {
					t.Fatalf("%s/n=%d/par=%d: %v", topo.name, n, par, err)
				}
				c := res.Counters
				if c.Passes != 1 || c.ThresholdSkips != 0 {
					t.Fatalf("%s/n=%d/par=%d: expected one skip-free pass, got %+v", topo.name, n, par, c)
				}
				if c.LoopIters != want {
					t.Errorf("%s/n=%d/par=%d: LoopIters = %d, want 2·pairs = %d",
						topo.name, n, par, c.LoopIters, want)
				}
				if c.SubsetsVisited != connected || c.KpEvals != connected {
					t.Errorf("%s/n=%d/par=%d: SubsetsVisited = %d, KpEvals = %d, want %d connected non-singleton subsets",
						topo.name, n, par, c.SubsetsVisited, c.KpEvals, connected)
				}
			}
		}
	}
}

// TestCCPUnsupported pins every ineligibility: an explicit CCP request fails
// with ErrEnumeratorUnsupported, while Auto silently falls back to a result
// bit-identical to the blitz default.
func TestCCPUnsupported(t *testing.T) {
	cards := []float64{10, 20, 30, 40}
	connected := joingraph.Build(joingraph.AppendixChainEdges(4), cards)
	disconnected := joingraph.Build([]joingraph.Pair{{0, 1}, {2, 3}}, cards)
	cases := []struct {
		name string
		q    Query
		opts Options
	}{
		{"no graph", Query{Cards: cards}, Options{}},
		{"disconnected", Query{Cards: cards, Graph: disconnected}, Options{}},
		{"left-deep", Query{Cards: cards, Graph: connected}, Options{LeftDeep: true}},
		{"no nested ifs", Query{Cards: cards, Graph: connected}, Options{DisableNestedIfs: true}},
		{"descending", Query{Cards: cards, Graph: connected}, Options{DescendingSubsets: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Enumerator = EnumeratorCCP
			if _, err := Optimize(c.q, opts); !errors.Is(err, ErrEnumeratorUnsupported) {
				t.Errorf("explicit ccp: error = %v, want ErrEnumeratorUnsupported", err)
			}
			opts.Enumerator = EnumeratorAuto
			auto, err := Optimize(c.q, opts)
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			opts.Enumerator = EnumeratorBlitz
			blitz, err := Optimize(c.q, opts)
			if err != nil {
				t.Fatalf("blitz: %v", err)
			}
			if auto.Cost != blitz.Cost || auto.Counters != blitz.Counters || !auto.Plan.Equal(blitz.Plan) {
				t.Errorf("auto fallback differs from blitz")
			}
		})
	}
	if _, err := Optimize(Query{Cards: cards, Graph: connected},
		Options{Enumerator: Enumerator(99)}); err == nil {
		t.Error("invalid Enumerator value: expected an error")
	}
}

// TestCCPThresholdPasses exercises the §6.4 multi-pass path under the CCP
// fill: a threshold too low for any plan must grow across passes and land on
// the same result as an unthresholded CCP run.
func TestCCPThresholdPasses(t *testing.T) {
	q, _ := ccpQuery(joingraph.AppendixChainEdges, 8)
	plain, err := Optimize(q, Options{Enumerator: EnumeratorCCP, DiscardTable: true})
	if err != nil {
		t.Fatal(err)
	}
	thr, err := Optimize(q, Options{
		Enumerator:    EnumeratorCCP,
		CostThreshold: 1e-6,
		DiscardTable:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if thr.Counters.Passes < 2 {
		t.Fatalf("expected multiple threshold passes, got %d", thr.Counters.Passes)
	}
	if thr.Cost != plain.Cost || !thr.Plan.Equal(plain.Plan) {
		t.Errorf("thresholded result (%v) differs from unthresholded (%v)", thr.Cost, plain.Cost)
	}
}

// TestCCPTableReuse reoptimizes different graphs at the same n through one
// pooled table, catching stale connectivity state: the chain's csg list must
// not leak into the star's fill or vice versa.
func TestCCPTableReuse(t *testing.T) {
	chainQ, _ := ccpQuery(joingraph.AppendixChainEdges, 9)
	starQ, _ := ccpQuery(func(n int) []joingraph.Pair { return joingraph.StarEdges(n, 0) }, 9)
	arena := NewArena(0)
	for round := 0; round < 2; round++ {
		for _, q := range []Query{chainQ, starQ} {
			fresh, err := Optimize(q, Options{Enumerator: EnumeratorCCP, DiscardTable: true})
			if err != nil {
				t.Fatal(err)
			}
			shared, err := Optimize(q, Options{Enumerator: EnumeratorCCP, DiscardTable: true, Arena: arena})
			if err != nil {
				t.Fatal(err)
			}
			if shared.Cost != fresh.Cost || shared.Counters != fresh.Counters || !shared.Plan.Equal(fresh.Plan) {
				t.Errorf("round %d: shared-table result differs from fresh table", round)
			}
		}
	}
	if got := arena.Stats().Reuses; got != 3 {
		t.Fatalf("arena reuses = %d, want 3: the runs did not share one table", got)
	}
}

// TestCCPContextCancel verifies the CCP fill stops cooperatively under a
// pre-cancelled context with a budget error, like the blitz fill does.
func TestCCPContextCancel(t *testing.T) {
	q, _ := ccpQuery(joingraph.CliqueEdges, 14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Optimize(q, Options{Ctx: ctx, Enumerator: EnumeratorCCP, DiscardTable: true})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
}

// TestCCPCliqueEqualsBlitzIters sanity-checks the degenerate corner: on a
// clique every subset is connected, so the CCP fill enumerates exactly the
// blitz scan's 2^|s|−2 splits per set — same LoopIters, same winner.
func TestCCPCliqueEqualsBlitzIters(t *testing.T) {
	q, _ := ccpQuery(joingraph.CliqueEdges, 8)
	blitz, err := Optimize(q, Options{DiscardTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ccpRes, err := Optimize(q, Options{Enumerator: EnumeratorCCP, DiscardTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if ccpRes.Counters.LoopIters != blitz.Counters.LoopIters {
		t.Errorf("clique LoopIters: ccp %d vs blitz %d", ccpRes.Counters.LoopIters, blitz.Counters.LoopIters)
	}
	if ccpRes.Cost != blitz.Cost || !ccpRes.Plan.Equal(blitz.Plan) {
		t.Errorf("clique winners differ: ccp %v vs blitz %v", ccpRes.Cost, blitz.Cost)
	}
	if math.IsInf(ccpRes.Cost, 1) {
		t.Error("clique optimization found no plan")
	}
}
