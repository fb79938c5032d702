// Package engine is a small in-memory relational execution engine: the
// substrate that lets optimized plans actually run. The paper never executes
// plans — its contribution is optimizer-side — but a downstream adopter
// needs the loop closed: this engine generates synthetic base relations whose
// join columns honour the catalog cardinalities and join-graph selectivities,
// executes bushy plan trees with physical operators (Cartesian product,
// block-nested-loops, sort-merge and hash joins), and reports actual result
// cardinalities for comparison against the optimizer's estimates.
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
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
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

// ColNames returns the column names in sorted order.
func (r *Relation) ColNames() []string {
	out := make([]string, 0, len(r.Cols))
	for k := range r.Cols {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
// rows but no columns.
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
	if g != nil {
		for _, e := range g.Edges() {
			domain := keyDomain(e.Selectivity)
			col := JoinColumn(e.A, e.B)
			for _, ri := range []int{e.A, e.B} {
				rel := inst.Relations[ri]
				vals := make([]int64, rel.Rows())
				fillInt63n(rng, vals, domain)
				if err := rel.AddCol(col, vals); err != nil {
					return nil, err
				}
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

// Batch is an intermediate result: a bag of tuples over a set of columns.
// Tuples are stored row-major for simplicity (intermediate results are small
// in the scenarios we exercise).
type Batch struct {
	// ColNames lists the columns, in order.
	ColNames []string
	// Rows holds one []int64 per tuple, parallel to ColNames.
	Rows   [][]int64
	colIdx map[string]int
}

// NewBatch creates an empty batch over the given columns.
func NewBatch(cols []string) *Batch {
	b := &Batch{ColNames: append([]string(nil), cols...), colIdx: make(map[string]int, len(cols))}
	for i, c := range b.ColNames {
		b.colIdx[c] = i
	}
	return b
}

// Col returns the index of the named column, or -1.
func (b *Batch) Col(name string) int {
	if i, ok := b.colIdx[name]; ok {
		return i
	}
	return -1
}

// Len returns the number of tuples.
func (b *Batch) Len() int { return len(b.Rows) }

// scan converts a base relation to a batch, prefixing column names with the
// relation index so they stay unique after joins ("0.id", "0.jk_0_1", …).
// Join-key columns keep an unprefixed alias entry per relation side via
// qualified names; the executor resolves predicate columns by qualified name.
func scan(rel *Relation, relIdx int) *Batch {
	names := rel.ColNames()
	qualified := make([]string, len(names))
	for i, n := range names {
		qualified[i] = fmt.Sprintf("%d.%s", relIdx, n)
	}
	b := NewBatch(qualified)
	b.Rows = make([][]int64, rel.Rows())
	cols := make([][]int64, len(names))
	for i, n := range names {
		cols[i] = rel.Cols[n]
	}
	// One slab for all rows: a scan costs two allocations instead of one per
	// tuple, and the rows land contiguous in memory.
	flat := make([]int64, rel.Rows()*len(names))
	for r := 0; r < rel.Rows(); r++ {
		row := flat[r*len(names) : (r+1)*len(names) : (r+1)*len(names)]
		for c := range names {
			row[c] = cols[c][r]
		}
		b.Rows[r] = row
	}
	return b
}

// equiPred is a resolved equi-join predicate between two batch columns.
type equiPred struct {
	lcol, rcol int
}

// resolvedEdge is a join-graph edge with both qualified column names
// formatted once per execution, so per-node predicate resolution never
// walks the graph or formats strings.
type resolvedEdge struct {
	a, b       int
	aCol, bCol string
}

// execState is per-execution scratch: the resolved edge list and a reusable
// predicate slice. One is built per Execute call and threaded through the
// recursion; the preds slice is consumed by each join before the next
// spanningPreds call, so sharing it is safe.
type execState struct {
	edges []resolvedEdge
	preds []equiPred
}

func (inst *Instance) newExecState() *execState {
	st := &execState{}
	if inst.Graph != nil {
		edges := inst.Graph.Edges()
		st.edges = make([]resolvedEdge, len(edges))
		for i, e := range edges {
			col := JoinColumn(e.A, e.B)
			st.edges[i] = resolvedEdge{
				a: e.A, b: e.B,
				aCol: fmt.Sprintf("%d.%s", e.A, col),
				bCol: fmt.Sprintf("%d.%s", e.B, col),
			}
		}
	}
	return st
}

// JoinAlgorithm selects the physical operator for Execute.
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

// AlgorithmByName maps plan annotations (from cost-model names) to physical
// operators; unknown names get the hash join.
func AlgorithmByName(name string) JoinAlgorithm {
	switch name {
	case "sortmerge", "sm":
		return SortMergeAlg
	case "dnl", "nestedloops", "naive":
		return NestedLoopsAlg
	default:
		return HashJoinAlg
	}
}

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Algorithm is the default physical join operator. When UsePlanAlgorithms
	// is set and a node carries an Algorithm annotation, the annotation wins.
	Algorithm JoinAlgorithm
	// UsePlanAlgorithms honours per-node Algorithm annotations (§6.5).
	UsePlanAlgorithms bool
	// MaxRows aborts execution when an intermediate result exceeds this many
	// tuples (0 means 10 million) — guard against accidentally executing an
	// exploding Cartesian product.
	MaxRows int
}

func (o ExecOptions) maxRows() int {
	if o.MaxRows <= 0 {
		return 10_000_000
	}
	return o.MaxRows
}

// ErrRowLimit is returned when an intermediate result exceeds
// ExecOptions.MaxRows.
var ErrRowLimit = errors.New("engine: intermediate result exceeds the row limit")

// Execute runs a plan tree against the instance and returns the final batch.
// Every join node applies exactly the predicates spanning its children —
// the §5.1 semantics — using the configured physical operator.
func (inst *Instance) Execute(p *plan.Node, opts ExecOptions) (*Batch, error) {
	if p == nil {
		return nil, errors.New("engine: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return inst.exec(p, opts, inst.newExecState())
}

func (inst *Instance) exec(p *plan.Node, opts ExecOptions, st *execState) (*Batch, error) {
	if p.IsLeaf() {
		if p.Rel < 0 || p.Rel >= len(inst.Relations) {
			return nil, fmt.Errorf("engine: plan references unknown relation %d", p.Rel)
		}
		return scan(inst.Relations[p.Rel], p.Rel), nil
	}
	left, err := inst.exec(p.Left, opts, st)
	if err != nil {
		return nil, err
	}
	right, err := inst.exec(p.Right, opts, st)
	if err != nil {
		return nil, err
	}
	preds := st.spanningPreds(p, left, right)
	alg := opts.Algorithm
	if opts.UsePlanAlgorithms && p.Algorithm != "" {
		alg = AlgorithmByName(p.Algorithm)
	}
	var out *Batch
	switch {
	case len(preds) == 0 || alg == NestedLoopsAlg:
		out, err = nestedLoopsJoin(left, right, preds, opts.maxRows())
	case alg == SortMergeAlg:
		out, err = sortMergeJoin(left, right, preds, opts.maxRows())
	default:
		out, err = hashJoin(left, right, preds, opts.maxRows())
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// spanningPreds resolves the predicates spanning the node's children into
// column-index pairs, reusing the execution's scratch slice: one pass over
// the pre-resolved edges, no graph walk, no string formatting per node.
func (st *execState) spanningPreds(p *plan.Node, left, right *Batch) []equiPred {
	st.preds = st.preds[:0]
	for _, e := range st.edges {
		var lname, rname string
		switch {
		case p.Left.Set.Has(e.a) && p.Right.Set.Has(e.b):
			lname, rname = e.aCol, e.bCol
		case p.Left.Set.Has(e.b) && p.Right.Set.Has(e.a):
			lname, rname = e.bCol, e.aCol
		default:
			continue
		}
		lc, rc := left.Col(lname), right.Col(rname)
		if lc >= 0 && rc >= 0 {
			st.preds = append(st.preds, equiPred{lcol: lc, rcol: rc})
		}
	}
	return st.preds
}

func outputBatch(left, right *Batch) *Batch {
	cols := make([]string, 0, len(left.ColNames)+len(right.ColNames))
	cols = append(cols, left.ColNames...)
	cols = append(cols, right.ColNames...)
	return NewBatch(cols)
}

func concatRows(l, r []int64) []int64 {
	row := make([]int64, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

func nestedLoopsJoin(left, right *Batch, preds []equiPred, maxRows int) (*Batch, error) {
	out := outputBatch(left, right)
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			match := true
			for _, p := range preds {
				if lr[p.lcol] != rr[p.rcol] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			out.Rows = append(out.Rows, concatRows(lr, rr))
			if len(out.Rows) > maxRows {
				return nil, ErrRowLimit
			}
		}
	}
	return out, nil
}

func hashJoin(left, right *Batch, preds []equiPred, maxRows int) (*Batch, error) {
	// Composite keys over all predicates, one extractor per side.
	keyWith := func(cols []int, row []int64) string {
		key := make([]byte, 0, 8*len(cols))
		for _, c := range cols {
			v := row[c]
			for b := 0; b < 8; b++ {
				key = append(key, byte(v>>(8*b)))
			}
		}
		return string(key)
	}
	lcols := make([]int, len(preds))
	rcols := make([]int, len(preds))
	for i, p := range preds {
		lcols[i], rcols[i] = p.lcol, p.rcol
	}

	// Build on the smaller side.
	buildLeft := len(left.Rows) <= len(right.Rows)
	build, probe := left, right
	buildCols, probeCols := lcols, rcols
	if !buildLeft {
		build, probe = right, left
		buildCols, probeCols = rcols, lcols
	}
	table := make(map[string][][]int64, len(build.Rows))
	for _, row := range build.Rows {
		k := keyWith(buildCols, row)
		table[k] = append(table[k], row)
	}
	out := outputBatch(left, right)
	for _, prow := range probe.Rows {
		for _, brow := range table[keyWith(probeCols, prow)] {
			var row []int64
			if buildLeft {
				row = concatRows(brow, prow)
			} else {
				row = concatRows(prow, brow)
			}
			out.Rows = append(out.Rows, row)
			if len(out.Rows) > maxRows {
				return nil, ErrRowLimit
			}
		}
	}
	return out, nil
}

func sortMergeJoin(left, right *Batch, preds []equiPred, maxRows int) (*Batch, error) {
	p0 := preds[0]
	lrows := append([][]int64(nil), left.Rows...)
	rrows := append([][]int64(nil), right.Rows...)
	sort.SliceStable(lrows, func(a, b int) bool { return lrows[a][p0.lcol] < lrows[b][p0.lcol] })
	sort.SliceStable(rrows, func(a, b int) bool { return rrows[a][p0.rcol] < rrows[b][p0.rcol] })
	out := outputBatch(left, right)
	i, j := 0, 0
	for i < len(lrows) && j < len(rrows) {
		lv, rv := lrows[i][p0.lcol], rrows[j][p0.rcol]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Find the runs of equal keys on both sides.
			i2 := i
			for i2 < len(lrows) && lrows[i2][p0.lcol] == lv {
				i2++
			}
			j2 := j
			for j2 < len(rrows) && rrows[j2][p0.rcol] == rv {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					// Residual predicates.
					ok := true
					for _, p := range preds[1:] {
						if lrows[a][p.lcol] != rrows[b][p.rcol] {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					out.Rows = append(out.Rows, concatRows(lrows[a], rrows[b]))
					if len(out.Rows) > maxRows {
						return nil, ErrRowLimit
					}
				}
			}
			i, j = i2, j2
		}
	}
	return out, nil
}

// Count executes the plan and returns only the result cardinality.
func (inst *Instance) Count(p *plan.Node, opts ExecOptions) (int, error) {
	b, err := inst.Execute(p, opts)
	if err != nil {
		return 0, err
	}
	return b.Len(), nil
}
