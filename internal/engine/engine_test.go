package engine

import (
	"math"
	"testing"

	"blitzsplit/internal/joingraph"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation("t", 3)
	if err := r.AddCol("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCol("a", []int64{1, 2, 3}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := r.AddCol("b", []int64{1}); err == nil {
		t.Error("short column accepted")
	}
	if r.Rows() != 3 {
		t.Errorf("Rows = %d", r.Rows())
	}
	if len(r.Cols) != 1 || len(r.Cols["a"]) != 3 {
		t.Errorf("Cols = %v", r.Cols)
	}
}

func TestJoinColumnCanonical(t *testing.T) {
	if JoinColumn(3, 1) != JoinColumn(1, 3) {
		t.Error("JoinColumn not canonical")
	}
	if JoinColumn(0, 2) != "jk_0_2" {
		t.Errorf("JoinColumn = %q", JoinColumn(0, 2))
	}
}

func TestSynthesizeShapes(t *testing.T) {
	g := joingraph.New(3)
	g.MustAddEdge(0, 1, 0.25)
	g.MustAddEdge(1, 2, 0.1)
	inst, err := Synthesize([]float64{100, 200, 50}, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Relations) != 3 {
		t.Fatalf("relations = %d", len(inst.Relations))
	}
	if inst.Relations[1].Rows() != 200 {
		t.Errorf("R1 rows = %d", inst.Relations[1].Rows())
	}
	// R1 carries both join columns; R0 and R2 one each, and nothing else.
	if len(inst.Relations[1].Cols) != 2 {
		t.Errorf("R1 cols = %v", inst.Relations[1].Cols)
	}
	if len(inst.Relations[0].Cols) != 1 {
		t.Errorf("R0 cols = %v", inst.Relations[0].Cols)
	}
	// Join-key domain honours the selectivity: sel 0.25 → domain 4.
	for _, v := range inst.Relations[0].Cols[JoinColumn(0, 1)] {
		if v < 0 || v >= 4 {
			t.Fatalf("join key %d outside domain [0,4)", v)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize([]float64{1, 2}, joingraph.New(3), 1); err == nil {
		t.Error("graph mismatch accepted")
	}
	if _, err := Synthesize([]float64{-1}, nil, 1); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := Synthesize([]float64{math.NaN()}, nil, 1); err == nil {
		t.Error("NaN cardinality accepted")
	}
	if _, err := Synthesize([]float64{1e12}, nil, 1); err == nil {
		t.Error("oversized relation accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	g := joingraph.New(2)
	g.MustAddEdge(0, 1, 0.5)
	a, err := Synthesize([]float64{50, 50}, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize([]float64{50, 50}, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	ca := a.Relations[0].Cols[JoinColumn(0, 1)]
	cb := b.Relations[0].Cols[JoinColumn(0, 1)]
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

// TestAlgorithmByName: ParseAlgorithm accepts every spelling and rejects
// the rest; AlgorithmByName falls back to the hash join; every String is a
// spelling.
func TestAlgorithmByName(t *testing.T) {
	cases := map[string]JoinAlgorithm{
		"":            HashJoinAlg,
		"hash":        HashJoinAlg,
		"sortmerge":   SortMergeAlg,
		"sm":          SortMergeAlg,
		"nestedloops": NestedLoopsAlg,
		"dnl":         NestedLoopsAlg,
		"naive":       NestedLoopsAlg,
	}
	for name, want := range cases {
		if got, err := ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got := AlgorithmByName(name); got != want {
			t.Errorf("AlgorithmByName(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseAlgorithm("mergesort"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
	if got := AlgorithmByName("anything"); got != HashJoinAlg {
		t.Errorf("AlgorithmByName(unknown) = %v, want hash", got)
	}
	if JoinAlgorithm(42).String() == "" {
		t.Error("unknown algorithm String empty")
	}
	for alg, name := range map[JoinAlgorithm]string{HashJoinAlg: "hash", SortMergeAlg: "sortmerge", NestedLoopsAlg: "nestedloops"} {
		if alg.String() != name || cases[name] != alg {
			t.Errorf("%v is named %q, want %q", alg, alg.String(), name)
		}
	}
}
