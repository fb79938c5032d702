package check_test

import (
	"errors"
	"testing"

	"blitzsplit/internal/check"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/joingraph"
)

// instance builds an instance by hand: rows per relation, key columns per
// relation (by column name), and the join graph's edges.
func instance(t *testing.T, rows []int, cols []map[string][]int64, edges [][2]int) *engine.Instance {
	t.Helper()
	inst := &engine.Instance{Graph: joingraph.New(len(rows))}
	for i, n := range rows {
		rel := engine.NewRelation("R", n)
		for name, vals := range cols[i] {
			if err := rel.AddCol(name, vals); err != nil {
				t.Fatal(err)
			}
		}
		inst.Relations = append(inst.Relations, rel)
	}
	for _, e := range edges {
		inst.Graph.MustAddEdge(e[0], e[1], 0.5)
	}
	return inst
}

// TestCountRows checks the plan-free counter on instances whose full join is
// known by hand.
func TestCountRows(t *testing.T) {
	k01 := engine.JoinColumn(0, 1)
	for _, tc := range []struct {
		name string
		inst *engine.Instance
		want int64
	}{
		{"product 30x40", instance(t, []int{30, 40}, make([]map[string][]int64, 2), nil), 1200},
		{"zero-row relation", instance(t, []int{3, 0, 4}, make([]map[string][]int64, 3), nil), 0},
		// Key 1 matches 2×3 pairs, key 2 none; R2 is a Cartesian factor.
		{"duplicate keys", instance(t, []int{3, 4, 2}, []map[string][]int64{
			{k01: {1, 1, 2}}, {k01: {1, 1, 1, 3}}, nil}, [][2]int{{0, 1}}), 12},
		// R1 lacks the edge's key column, so the edge joins nothing.
		{"missing key column", instance(t, []int{3, 4}, []map[string][]int64{
			{k01: {1, 2, 3}}, nil}, [][2]int{{0, 1}}), 12},
	} {
		got, err := check.CountRows(tc.inst)
		if err != nil || got != tc.want {
			t.Errorf("%s: CountRows = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
	if _, err := check.CountRows(nil); err == nil {
		t.Error("nil instance accepted")
	}
}

// TestCountRowsStarHubLast: in index order, a star whose hub comes last
// keeps every spoke key open — up to 10^7 states here, one per combination
// of seven keys over a domain of 10. Adding the hub once it leaves fewer
// edges open than another spoke caps the states at 10^4, and the count
// still matches a sum over the hub's rows. A smaller budget is reported.
func TestCountRowsStarHubLast(t *testing.T) {
	const n, rows = 8, 36
	hub := n - 1
	cards := make([]float64, n)
	g := joingraph.New(n)
	for i := range cards {
		cards[i] = rows
		if i != hub {
			g.MustAddEdge(i, hub, 0.1)
		}
	}
	inst, err := engine.Synthesize(cards, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for h := 0; h < rows; h++ {
		tuples := int64(1)
		for s := 0; s < hub; s++ {
			col := engine.JoinColumn(s, hub)
			key, matches := inst.Relations[hub].Cols[col][h], int64(0)
			for _, v := range inst.Relations[s].Cols[col] {
				if v == key {
					matches++
				}
			}
			tuples *= matches
		}
		want += tuples
	}
	got, err := check.CountRowsWithBudget(inst, 1<<14)
	if err != nil || got != want {
		t.Fatalf("CountRows = %d, %v; want %d", got, err, want)
	}
	if _, err := check.CountRowsWithBudget(inst, 100); !errors.Is(err, check.ErrCountBudget) {
		t.Fatalf("budget 100: got %v, want ErrCountBudget", err)
	}
}

// TestCountRowsOverflow: a product of twenty 9-row relations has
// 9^20 ≈ 1.2·10^19 rows, more than an int64 holds.
func TestCountRowsOverflow(t *testing.T) {
	cards := make([]float64, 20)
	for i := range cards {
		cards[i] = 9
	}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.CountRows(inst); !errors.Is(err, check.ErrCountOverflow) {
		t.Fatalf("got %v, want ErrCountOverflow", err)
	}
}
