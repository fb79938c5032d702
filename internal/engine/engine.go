// Package engine is the execution data layer: it synthesizes in-memory base
// relations whose join columns honour the catalog cardinalities and
// join-graph selectivities, so optimized plans can actually run. The paper
// never executes plans — its contribution is optimizer-side — but a
// downstream adopter needs the loop closed. The vectorized executor
// (internal/exec) runs plans over an Instance; check.CountRows counts an
// Instance's full join without a plan. This package also names the join
// algorithms and the row-limit error the executor shares with its callers.
//
// Data synthesis: for an equi-join predicate of selectivity s between Ri and
// Rj, both relations carry a join column with values drawn uniformly from a
// domain of size d = round(1/s). Under the paper's independence and
// uniformity assumptions, |Ri ⨝ Rj| ≈ |Ri|·|Rj|/d = |Ri|·|Rj|·s, so measured
// join sizes converge to the optimizer's estimates. Join keys are the only
// columns: a relation no predicate touches has none, only a row count. Each
// key column is drawn in one pass that computes Int63n's rejection bound once
// per column, so its values, and the generator's position after it, are
// exactly those of calling rand.Int63n once per value.
//
// All of an instance's key columns are views of one slab. Release hands the
// slab back to a small free list that the next synthesis draws from, so a
// server that releases each request's instance stops allocating key columns
// once the list is warm.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"blitzsplit/internal/freelist"
	"blitzsplit/internal/joingraph"
)

// Relation is a materialized table. Columns are keyed by name; every column
// is a dense []int64 of the relation's cardinality.
type Relation struct {
	// Name identifies the relation.
	Name string
	// Cols maps column name to values; all columns have equal length.
	Cols map[string][]int64
	// rows caches the row count.
	rows int
}

// NewRelation creates an empty relation with the given row count.
func NewRelation(name string, rows int) *Relation {
	return &Relation{Name: name, Cols: make(map[string][]int64), rows: rows}
}

// Rows returns the number of tuples.
func (r *Relation) Rows() int { return r.rows }

// AddCol attaches a column; its length must match the relation's row count.
func (r *Relation) AddCol(name string, vals []int64) error {
	if len(vals) != r.rows {
		return fmt.Errorf("engine: column %q has %d values, relation %q has %d rows",
			name, len(vals), r.Name, r.rows)
	}
	if _, dup := r.Cols[name]; dup {
		return fmt.Errorf("engine: duplicate column %q in relation %q", name, r.Name)
	}
	r.Cols[name] = vals
	return nil
}

// JoinColumn returns the canonical column name carrying the join key for the
// predicate between base relations a and b.
func JoinColumn(a, b int) string {
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("jk_%d_%d", a, b)
}

// Instance is a fully synthesized database: one relation per base relation,
// with join-key columns for every predicate in the graph.
type Instance struct {
	// Relations holds the base tables, indexed by relation number.
	Relations []*Relation
	// Graph is the join graph the instance was synthesized for.
	Graph *joingraph.Graph
	// slab backs every synthesized key column; released marks an instance
	// whose slab went back to the free list.
	slab     []int64
	released bool
}

// ErrReleased is returned by the executor for an instance after Release.
var ErrReleased = errors.New("engine: instance was released")

// Release hands the instance's key columns back for reuse by a later
// synthesis and empties every relation's column map, so no view of the
// reused memory survives. The instance must not be in use: nothing may read
// its columns during or after the call, and the executor refuses it with
// ErrReleased. A second Release does nothing. An instance that is never
// released leaves its columns to the garbage collector.
func (inst *Instance) Release() {
	if inst.released {
		return
	}
	inst.released = true
	for _, rel := range inst.Relations {
		clear(rel.Cols)
	}
	putSlab(inst.slab)
	inst.slab = nil
}

// Released reports whether Release was called.
func (inst *Instance) Released() bool { return inst.released }

// maxSlabLen bounds a slab the free list keeps: 8 MiB of keys. A larger
// instance allocates its own slab and leaves it to the garbage collector.
const maxSlabLen = 8 << 20 / 8

// slabs is the free list of key-column slabs.
var slabs freelist.List[[]int64]

// getSlab returns a slab of length n, reusing a free one when it is large
// enough and replacing it with one of length n when it is not, so each slab
// grows to the largest instance it has served. Every value is overwritten by
// the caller.
func getSlab(n int) []int64 {
	if n == 0 {
		return nil
	}
	var s []int64
	if n <= maxSlabLen {
		s, _ = slabs.Get()
	}
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// putSlab returns a slab to the free list unless it is over maxSlabLen.
func putSlab(s []int64) {
	if cap(s) > 0 && cap(s) <= maxSlabLen {
		slabs.Put(s)
	}
}

// Synthesize builds a database instance for the given base cardinalities and
// join graph, deterministically from seed. Cardinalities are rounded to the
// nearest integer (minimum 0). The graph may be nil (no join columns).
//
// Each predicate (i, j, s) puts a column JoinColumn(i,j) on both relations,
// with values uniform over a domain of size round(1/s), at least 1 and at
// most math.MaxInt64. The edges are drawn in graph order, relation i before
// j, each value equal to what rand.Int63n would return at that point of the
// seeded stream. There is no other column: a relation without predicates has
// rows but no columns. The columns share one slab; see Instance.Release.
func Synthesize(cards []float64, g *joingraph.Graph, seed int64) (*Instance, error) {
	return SynthesizeRand(cards, g, rand.New(rand.NewSource(seed)))
}

// SynthesizeRand is Synthesize drawing from an injected source, for callers
// that interleave data synthesis with other random choices and need one
// reproducible stream (testutil generators, fuzz harnesses).
func SynthesizeRand(cards []float64, g *joingraph.Graph, rng *rand.Rand) (*Instance, error) {
	if g != nil && g.N() != len(cards) {
		return nil, fmt.Errorf("engine: graph covers %d relations, got %d cardinalities", g.N(), len(cards))
	}
	const maxRows = 50_000_000
	inst := &Instance{Relations: make([]*Relation, len(cards)), Graph: g}
	for i, c := range cards {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("engine: invalid cardinality %v for relation %d", c, i)
		}
		rows := int(math.Round(c))
		if rows > maxRows {
			return nil, fmt.Errorf("engine: relation %d with %d rows exceeds the %d-row synthesis limit", i, rows, maxRows)
		}
		inst.Relations[i] = NewRelation(fmt.Sprintf("R%d", i), rows)
	}
	if g == nil {
		return inst, nil
	}
	keys := 0
	for _, e := range g.Edges() {
		keys += inst.Relations[e.A].Rows() + inst.Relations[e.B].Rows()
	}
	inst.slab = getSlab(keys)
	free := inst.slab
	for _, e := range g.Edges() {
		domain := keyDomain(e.Selectivity)
		col := JoinColumn(e.A, e.B)
		for _, ri := range [2]int{e.A, e.B} {
			rel := inst.Relations[ri]
			n := rel.Rows()
			vals := free[:n:n]
			free = free[n:]
			fillInt63n(rng, vals, domain)
			if err := rel.AddCol(col, vals); err != nil {
				inst.Release()
				return nil, err
			}
		}
	}
	return inst, nil
}

// keyDomain is the join-key domain of a predicate with selectivity s:
// round(1/s), at least 1, clamped to math.MaxInt64 — below s = 2^-63 the
// rounded inverse no longer fits an int64 (for a subnormal s it is +Inf).
func keyDomain(s float64) int64 {
	d := math.Round(1 / s)
	if d >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Max(1, d))
}

// fillInt63n fills dst with draws from [0, n), each equal to rng.Int63n(n)
// at that point of the stream and consuming the same Int63 calls. It is
// Int63n's body with the rejection bound (1<<63)%n, a 64-bit division,
// hoisted out of the per-value loop. n must be positive.
func fillInt63n(rng *rand.Rand, dst []int64, n int64) {
	if n&(n-1) == 0 {
		for i := range dst {
			dst[i] = rng.Int63() & (n - 1)
		}
		return
	}
	bound := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	for i := range dst {
		v := rng.Int63()
		for v > bound {
			v = rng.Int63()
		}
		dst[i] = v % n
	}
}

// JoinAlgorithm selects a physical join operator of the vectorized executor
// (internal/exec, where it is exec.Algorithm).
type JoinAlgorithm int

const (
	// HashJoinAlg builds a hash table on the smaller input (falls back to a
	// Cartesian nested loop when there are no predicates).
	HashJoinAlg JoinAlgorithm = iota
	// SortMergeAlg sorts both inputs on the first predicate's key and merges
	// (residual predicates applied as filters).
	SortMergeAlg
	// NestedLoopsAlg compares every pair of tuples.
	NestedLoopsAlg
)

// String names the algorithm.
func (a JoinAlgorithm) String() string {
	switch a {
	case HashJoinAlg:
		return "hash"
	case SortMergeAlg:
		return "sortmerge"
	case NestedLoopsAlg:
		return "nestedloops"
	}
	return fmt.Sprintf("JoinAlgorithm(%d)", int(a))
}

// ParseAlgorithm maps a join-algorithm name to its operator: "" or "hash",
// "sortmerge" or "sm", and "nestedloops", "dnl" or "naive" — the cost-model
// names plan annotations carry (§6.5) — and rejects any other name.
func ParseAlgorithm(name string) (JoinAlgorithm, error) {
	switch name {
	case "", "hash":
		return HashJoinAlg, nil
	case "sortmerge", "sm":
		return SortMergeAlg, nil
	case "nestedloops", "dnl", "naive":
		return NestedLoopsAlg, nil
	}
	return 0, fmt.Errorf("unknown join algorithm %q", name)
}

// AlgorithmByName is ParseAlgorithm for plan annotations: an unknown name
// gets the hash join.
func AlgorithmByName(name string) JoinAlgorithm {
	alg, err := ParseAlgorithm(name)
	if err != nil {
		return HashJoinAlg
	}
	return alg
}

// ErrRowLimit is returned by the executor when an intermediate result
// exceeds its row limit (exec.Options.MaxRows).
var ErrRowLimit = errors.New("engine: intermediate result exceeds the row limit")
