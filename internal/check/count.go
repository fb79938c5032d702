package check

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/engine"
)

// countStateBudget bounds the partial-join states CountRows holds at once.
// Instances of the fuzz targets' size (8 relations of at most 36 rows) stay
// far below it; a larger instance gets ErrCountBudget instead of exhausting
// memory.
const countStateBudget = 1 << 20

// ErrCountBudget is returned when CountRows would hold more partial-join
// states than its budget.
var ErrCountBudget = errors.New("check: row count exceeds its state budget")

// ErrCountOverflow is returned when the full join has more rows than an
// int64 holds.
var ErrCountOverflow = errors.New("check: row count overflows int64")

// countEdge is a join-graph edge whose key column both relations carry.
type countEdge struct {
	a, b   int
	ka, kb []int64
}

// keyOf returns the edge's key column on relation r's side, which must be
// one of its ends, and the relation at the other end.
func (e countEdge) keyOf(r int) ([]int64, int) {
	if e.a == r {
		return e.ka, e.b
	}
	return e.kb, e.a
}

// CountRows counts the tuples of inst's full join without a plan: the tuples
// that take one row from every relation and agree on every join-graph edge
// whose key column both relations carry, the edge rule the executor applies.
// Under the paper's §5.1 semantics every bushy plan over all relations,
// Cartesian products included, computes this join.
//
// Relations are added one at a time. After each step a map holds, for each
// combination of key values on the open edges (those with exactly one end
// added), the number of partial tuples that carry it. Adding a relation
// matches its rows against the edges it closes and opens its edges to the
// relations still out, so Cartesian factors and duplicate keys multiply
// instead of being enumerated. The next relation is the one that leaves the
// fewest edges open, the lowest index winning ties.
func CountRows(inst *engine.Instance) (int64, error) {
	return countRows(inst, countStateBudget)
}

// countRows is CountRows holding at most budget states.
func countRows(inst *engine.Instance, budget int) (int64, error) {
	if inst == nil {
		return 0, errors.New("check: nil instance")
	}
	edges := countEdges(inst)
	added := make([]bool, len(inst.Relations))
	// open lists the open edges; a state's key holds their values in this
	// order, 8 bytes each.
	var open []int
	states := map[string]int64{"": 1}
	var ck, rk, prefix, key []byte
	for range inst.Relations {
		r := nextRelation(edges, added)
		var closes, stays, nextOpen []int
		var closeCols, openCols [][]int64
		for pos, ei := range open {
			if e := edges[ei]; e.a == r || e.b == r {
				col, _ := e.keyOf(r)
				closes, closeCols = append(closes, pos), append(closeCols, col)
			} else {
				stays, nextOpen = append(stays, pos), append(nextOpen, ei)
			}
		}
		for ei, e := range edges {
			if e.a != r && e.b != r {
				continue
			}
			if col, other := e.keyOf(r); !added[other] {
				openCols, nextOpen = append(openCols, col), append(nextOpen, ei)
			}
		}
		// Group r's rows by their values on the closing edges, and within a
		// group count the rows per combination of values on the opened ones.
		groups := make(map[string]map[string]int64)
		for row := 0; row < inst.Relations[r].Rows(); row++ {
			ck = appendKeys(ck[:0], closeCols, row)
			g := groups[string(ck)]
			if g == nil {
				g = make(map[string]int64)
				groups[string(ck)] = g
			}
			rk = appendKeys(rk[:0], openCols, row)
			g[string(rk)]++
		}
		next := make(map[string]int64)
		for k, c := range states {
			ck, prefix = ck[:0], prefix[:0]
			for _, pos := range closes {
				ck = append(ck, k[8*pos:8*pos+8]...)
			}
			for _, pos := range stays {
				prefix = append(prefix, k[8*pos:8*pos+8]...)
			}
			for rkey, m := range groups[string(ck)] {
				key = append(append(key[:0], prefix...), rkey...)
				old, seen := next[string(key)]
				if !seen && len(next) >= budget {
					return 0, fmt.Errorf("%w of %d states (adding relation %d)", ErrCountBudget, budget, r)
				}
				if c > (math.MaxInt64-old)/m {
					return 0, ErrCountOverflow
				}
				next[string(key)] = old + c*m
			}
		}
		states, open = next, nextOpen
		added[r] = true
	}
	return states[""], nil
}

// countEdges resolves the graph's edges whose key column both relations
// carry; an edge missing either column is never applied.
func countEdges(inst *engine.Instance) []countEdge {
	if inst.Graph == nil {
		return nil
	}
	var edges []countEdge
	for _, e := range inst.Graph.Edges() {
		col := engine.JoinColumn(e.A, e.B)
		ka, okA := keyColumn(inst, e.A, col)
		kb, okB := keyColumn(inst, e.B, col)
		if okA && okB {
			edges = append(edges, countEdge{a: e.A, b: e.B, ka: ka, kb: kb})
		}
	}
	return edges
}

func keyColumn(inst *engine.Instance, rel int, col string) ([]int64, bool) {
	if rel >= len(inst.Relations) {
		return nil, false
	}
	vals, ok := inst.Relations[rel].Cols[col]
	return vals, ok
}

// nextRelation returns the relation not yet added whose addition leaves the
// fewest edges open, the lowest index winning ties.
func nextRelation(edges []countEdge, added []bool) int {
	best, bestOpen := -1, 0
	for r, in := range added {
		if in {
			continue
		}
		open := 0
		for _, e := range edges {
			if (added[e.a] || e.a == r) != (added[e.b] || e.b == r) {
				open++
			}
		}
		if best < 0 || open < bestOpen {
			best, bestOpen = r, open
		}
	}
	return best
}

// appendKeys appends the row's value in each column to key, 8 bytes each.
func appendKeys(key []byte, cols [][]int64, row int) []byte {
	for _, col := range cols {
		key = binary.LittleEndian.AppendUint64(key, uint64(col[row]))
	}
	return key
}
