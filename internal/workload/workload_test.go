package workload

import (
	"math"
	"strings"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/stats"
)

func TestMeanCardGrid(t *testing.T) {
	g := MeanCardGrid()
	if len(g) != 10 {
		t.Fatalf("grid has %d points", len(g))
	}
	// The paper's footnote-6 sample points.
	want := []float64{1, 4.64, 21.5, 100, 464}
	for i, w := range want {
		if math.Abs(g[i]-w)/w > 0.01 {
			t.Errorf("grid[%d] = %v, want ≈%v", i, g[i], w)
		}
	}
	if math.Abs(g[9]-1e6)/1e6 > 1e-9 {
		t.Errorf("grid top = %v", g[9])
	}
}

func TestVariabilityGrid(t *testing.T) {
	g := VariabilityGrid()
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(g) != len(want) {
		t.Fatalf("grid = %v", g)
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid = %v", g)
		}
	}
}

func TestCartesianCase(t *testing.T) {
	c := CartesianCase(6, 500)
	if c.N != 6 || len(c.Cards) != 6 || c.Graph != nil {
		t.Fatalf("case = %+v", c)
	}
	for _, card := range c.Cards {
		if card != 500 {
			t.Fatalf("cards = %v", c.Cards)
		}
	}
	if c.Model.Name() != "naive" {
		t.Errorf("model = %s", c.Model.Name())
	}
}

func TestAppendixCaseConsistency(t *testing.T) {
	c2 := AppendixCase(joingraph.TopoStar, cost.NewDiskNestedLoops(), 100, 0.5, 15)
	if len(c2.Graph.Edges()) != 14 {
		t.Errorf("star edges = %d", len(c2.Graph.Edges()))
	}
	if got := stats.GeometricMean(c2.Cards); math.Abs(got-100)/100 > 1e-9 {
		t.Errorf("geo mean = %v", got)
	}
	// Result cardinality equals μ (Appendix invariant).
	if got := c2.Graph.JoinCardinality(bitset.Full(15), c2.Cards); math.Abs(got-100)/100 > 1e-6 {
		t.Errorf("result cardinality = %v, want 100", got)
	}
	if !strings.Contains(c2.Name, "dnl") || !strings.Contains(c2.Name, "star") {
		t.Errorf("name = %q", c2.Name)
	}
}

func TestFigure2Cases(t *testing.T) {
	cs := Figure2Cases(2, 15)
	if len(cs) != 14 {
		t.Fatalf("cases = %d", len(cs))
	}
	if cs[0].N != 2 || cs[13].N != 15 {
		t.Errorf("range wrong: %d..%d", cs[0].N, cs[13].N)
	}
	for _, c := range cs {
		if c.Graph != nil {
			t.Errorf("%s has a join graph", c.Name)
		}
	}
}

func TestFigure4CasesGridShape(t *testing.T) {
	cs := Figure4Cases(10) // smaller n keeps the test fast to *construct*
	if len(cs) != 3*4*10*5 {
		t.Fatalf("cases = %d, want 600", len(cs))
	}
	models := map[string]bool{}
	topos := map[string]bool{}
	for _, c := range cs {
		models[c.Model.Name()] = true
		topos[c.Topology.String()] = true
		if c.N != 10 {
			t.Fatalf("case %s has n=%d", c.Name, c.N)
		}
		if c.Threshold != 0 {
			t.Fatalf("fig4 case %s has a threshold", c.Name)
		}
	}
	for _, m := range []string{"naive", "sortmerge", "dnl"} {
		if !models[m] {
			t.Errorf("missing model %s", m)
		}
	}
	for _, topo := range []string{"chain", "cycle+3", "star", "clique"} {
		if !topos[topo] {
			t.Errorf("missing topology %s", topo)
		}
	}
}

func TestFigure4AtPaperN(t *testing.T) {
	cs := Figure4Cases(DefaultN)
	if len(cs) != 600 {
		t.Fatalf("cases = %d, want 600", len(cs))
	}
}

func TestFigure5Cases(t *testing.T) {
	cs := Figure5Cases(15)
	if len(cs) != 2*10*5 {
		t.Fatalf("cases = %d", len(cs))
	}
	var sawNaiveChain, sawDnlCycle bool
	for _, c := range cs {
		switch {
		case c.Model.Name() == "naive" && c.Topology == joingraph.TopoChain:
			sawNaiveChain = true
		case c.Model.Name() == "dnl" && c.Topology == joingraph.TopoCyclePlus3:
			sawDnlCycle = true
		default:
			t.Fatalf("unexpected cell %s", c.Name)
		}
	}
	if !sawNaiveChain || !sawDnlCycle {
		t.Error("missing one of the Figure 5 cells")
	}
}

func TestFigure6Cases(t *testing.T) {
	cs := Figure6Cases(15)
	if len(cs) != 3*10*5 {
		t.Fatalf("cases = %d", len(cs))
	}
	thresholds := map[float64]int{}
	for _, c := range cs {
		if c.Threshold == 0 {
			t.Fatalf("case %s missing threshold", c.Name)
		}
		thresholds[c.Threshold]++
	}
	for _, th := range []float64{1e9, 1e5, 1e14} {
		if thresholds[th] != 50 {
			t.Errorf("threshold %g has %d cases, want 50", th, thresholds[th])
		}
	}
}

func TestTable1Case(t *testing.T) {
	c := Table1Case()
	if len(c.Cards) != 4 || c.Cards[0] != 10 || c.Cards[3] != 40 {
		t.Fatalf("cards = %v", c.Cards)
	}
	if c.Graph != nil {
		t.Error("table 1 is a pure product")
	}
}
