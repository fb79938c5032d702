// Package exec is the columnar execution runtime. It runs bushy plan trees
// over synthesized instances (engine.Instance is the data layer), stores
// intermediate results column-major, joins with a presized bucket-chained
// hash table probed in bounded batches, filters residual predicates through
// selection vectors, and materializes output by gathering match-index
// vectors — no per-row allocations, no string keys. Each result
// carries only its live join keys, the columns a predicate above it still
// reads, so the root carries none and only its row count leaves.
//
// An execution's scratch (hash table, hash and selection buffers, match
// vectors) comes from a small free list of executors and goes back to it
// when the run ends, so a server running one plan after another stops
// allocating it once the list is warm. A join gathers its output into
// columns of results the run has already joined, so a run allocates only
// the columns it holds at once, and no gathered column outlives its run.
//
// The package has two drivers. Run executes a plan statically. RunAdaptive
// (adaptive.go) executes bottom-up while comparing observed intermediate
// cardinalities against the plan's estimates; when an estimate is off by more
// than a configured ratio it re-optimizes the remaining work through a
// caller-supplied ReoptFunc and splices the new subplan in (plan.Splice).
//
// Every plan over all of an instance's relations, under every algorithm and
// either driver, counts the instance's full join: check.ExecutionAgree and
// FuzzExecVectorized compare each run with check.CountRows, which counts it
// without a plan.
package exec

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/freelist"
	"blitzsplit/internal/plan"
)

// Algorithm selects the physical join operator. It is engine.JoinAlgorithm,
// whose ParseAlgorithm reads plan annotations and request names.
type Algorithm = engine.JoinAlgorithm

// DefaultBatchSize bounds how many probe rows a join processes per batch when
// Options.BatchSize is zero.
const DefaultBatchSize = 1024

// defaultMaxRows is the intermediate-result guard applied when
// Options.MaxRows is zero.
const defaultMaxRows = 10_000_000

// colID names a column of an intermediate result: the base relation it came
// from plus the relation-local column name.
type colID struct {
	rel  int
	name string
}

// table is a column-major intermediate result over one relation set. It
// carries only the set's live columns (executor.live): its width is the
// number of predicates still to apply above it, not the number of columns
// below it. Scans alias the instance's relation columns (zero copy); join
// outputs gather into columns the run owns, which owned marks, and which
// return to the executor once a join above has read them.
type table struct {
	ids   []colID
	cols  [][]int64
	rows  int
	owned bool
}

// column returns the identified column. A table holds a handful of live
// columns, so a scan of its ids beats a per-table map. Callers ask only for
// live columns, which every table carries.
func (t *table) column(id colID) []int64 {
	for i, c := range t.ids {
		if c == id {
			return t.cols[i]
		}
	}
	return nil
}

// Options configures execution. The zero value runs hash joins, ignores
// plan annotations and guards intermediates at 10M rows.
type Options struct {
	// Algorithm is the default physical join operator. When UsePlanAlgorithms
	// is set and a node carries an Algorithm annotation, the annotation wins.
	Algorithm Algorithm
	// UsePlanAlgorithms honours per-node Algorithm annotations (§6.5).
	UsePlanAlgorithms bool
	// MaxRows aborts execution with engine.ErrRowLimit when an intermediate
	// result exceeds this many tuples (0 means 10 million).
	MaxRows int
	// BatchSize bounds the rows a join probes per batch (0 means
	// DefaultBatchSize).
	BatchSize int
	// CollectOps records a per-operator breakdown in Stats.Ops.
	CollectOps bool
}

func (o Options) maxRows() int {
	if o.MaxRows <= 0 {
		return defaultMaxRows
	}
	return o.MaxRows
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// OpStats is the per-operator entry of Stats.Ops.
type OpStats struct {
	// Kind is "scan", "hash", "sortmerge", or "nestedloops".
	Kind string `json:"kind"`
	// Set is the relation set the operator computed.
	Set bitset.Set `json:"set"`
	// Rows is the operator's output cardinality; Estimated is the plan's
	// estimate for the same set (0 for scans of estimate-free leaves).
	Rows      int64   `json:"rows"`
	Estimated float64 `json:"estimated"`
	// Batches counts probe batches (or run blocks); Nanos is wall time.
	Batches int64 `json:"batches"`
	Nanos   int64 `json:"nanos"`
}

// Stats aggregates one execution.
type Stats struct {
	// Rows is the final result cardinality.
	Rows int64 `json:"rows"`
	// Joins counts join operators executed; IntermediateRows sums their
	// output rows excluding the final result — the quantity adaptive
	// re-optimization tries to shrink.
	Joins            int   `json:"joins"`
	IntermediateRows int64 `json:"intermediate_rows"`
	// Batches counts probe batches across all operators; Nanos is total wall
	// time inside the executor.
	Batches int64 `json:"batches"`
	Nanos   int64 `json:"nanos"`
	// Ops is the per-operator breakdown, present under Options.CollectOps.
	Ops []OpStats `json:"ops,omitempty"`
}

// Result is one finished execution.
type Result struct {
	// Rows is the final cardinality. Only the count leaves the executor: the
	// root has no live columns, so nothing beyond its match count is built.
	Rows int64
	// Stats instruments the run. Plan is the tree actually executed — it
	// differs from the input only when RunAdaptive replanned mid-query.
	Stats Stats
	Plan  *plan.Node
	// Events records adaptive re-optimization triggers (empty for Run).
	Events []ReoptEvent
}

// pred is one resolved equi-join predicate: the two column vectors to
// compare, already looked up so join inner loops touch no maps.
type pred struct {
	l, r []int64
}

// edgePred is a graph edge with its join-column name resolved once per
// execution, so per-node predicate and live-column resolution is a scan over
// E edges with no string formatting.
type edgePred struct {
	a, b int
	col  string
}

// executor carries one execution's scratch: resolved edges, the predicate
// slice, the hash table's slot heads and chains, hash and selection buffers,
// and match-index vectors, all reused across join nodes and, through the
// free list, across runs. Its spare gathered columns serve one run only.
type executor struct {
	inst    *engine.Instance
	opts    Options
	batch   int
	maxRows int
	// all is the executed plan's relation set; live columns are taken
	// relative to it.
	all   bitset.Set
	edges []edgePred
	preds []pred
	// bkeys and pkeys are a hash join's key columns on its build and probe
	// sides.
	bkeys [][]int64
	pkeys [][]int64
	heads []int32
	next  []int32
	hbuf  []uint64
	sel   []int32
	lidx  []int32
	ridx  []int32
	// spare holds gathered columns of results already joined, for the next
	// gather to fill.
	spare [][]int64
	stats Stats
}

// maxExecutorBytes bounds the scratch an executor may keep on the free
// list: one whose hash table and vectors grew past it (a run with a huge
// intermediate) is dropped.
const maxExecutorBytes = 8 << 20

// executors is the free list of executors.
var executors freelist.List[*executor]

// newExecutor validates the inputs, takes an executor from the free list and
// resolves the graph's edges for one execution of p. The caller hands the
// executor back with release.
func newExecutor(inst *engine.Instance, p *plan.Node, opts Options) (*executor, error) {
	if inst == nil {
		return nil, errors.New("exec: nil instance")
	}
	if inst.Released() {
		return nil, engine.ErrReleased
	}
	if p == nil {
		return nil, errors.New("exec: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x, ok := executors.Get()
	if !ok {
		x = new(executor)
	}
	x.inst, x.opts, x.batch, x.maxRows, x.all = inst, opts, opts.batchSize(), opts.maxRows(), p.Set
	x.edges, x.stats = x.edges[:0], Stats{}
	if g := inst.Graph; g != nil {
		for _, e := range g.Edges() {
			col := engine.JoinColumn(e.A, e.B)
			// A predicate whose key column either relation lacks can never be
			// applied (check.CountRows skips it too), so it is no edge here.
			if !hasColumn(inst, e.A, col) || !hasColumn(inst, e.B, col) {
				continue
			}
			x.edges = append(x.edges, edgePred{a: e.A, b: e.B, col: col})
		}
	}
	faultinject.Inject(faultinject.ExecRun)
	return x, nil
}

// release drops the executor's references to the run's data and its spare
// columns, and returns it to the free list unless its scratch outgrew
// maxExecutorBytes. Nothing of the run may be read afterwards.
func (x *executor) release() {
	x.inst = nil
	clear(x.preds[:cap(x.preds)])
	clear(x.bkeys[:cap(x.bkeys)])
	clear(x.pkeys[:cap(x.pkeys)])
	clear(x.spare)
	x.spare = x.spare[:0]
	if 4*(cap(x.heads)+cap(x.next)+cap(x.sel)+cap(x.lidx)+cap(x.ridx))+8*cap(x.hbuf) > maxExecutorBytes {
		return
	}
	executors.Put(x)
}

func hasColumn(inst *engine.Instance, rel int, name string) bool {
	if rel >= len(inst.Relations) {
		return false
	}
	_, ok := inst.Relations[rel].Cols[name]
	return ok
}

// Run executes a plan tree against the instance and returns the result
// cardinality. Execution is bottom-up and static; see RunAdaptive for the
// re-optimizing driver.
func Run(inst *engine.Instance, p *plan.Node, opts Options) (*Result, error) {
	x, err := newExecutor(inst, p, opts)
	if err != nil {
		return nil, err
	}
	defer x.release()
	start := time.Now()
	t, err := x.node(p)
	if err != nil {
		return nil, err
	}
	x.finish(t, start)
	return &Result{Rows: int64(t.rows), Stats: x.stats, Plan: p}, nil
}

// Count is Run returning only the result cardinality.
func Count(inst *engine.Instance, p *plan.Node, opts Options) (int64, error) {
	r, err := Run(inst, p, opts)
	if err != nil {
		return 0, err
	}
	return r.Rows, nil
}

// finish closes the aggregate stats: total wall time, final cardinality, and
// the intermediate-row sum (joins counted their outputs; the root's rows are
// a result, not an intermediate).
func (x *executor) finish(root *table, start time.Time) {
	x.stats.Nanos = time.Since(start).Nanoseconds()
	x.stats.Rows = int64(root.rows)
	if x.stats.Joins > 0 {
		x.stats.IntermediateRows -= int64(root.rows)
	}
}

// node executes the subtree rooted at p.
func (x *executor) node(p *plan.Node) (*table, error) {
	if p.IsLeaf() {
		return x.scan(p)
	}
	left, err := x.node(p.Left)
	if err != nil {
		return nil, err
	}
	right, err := x.node(p.Right)
	if err != nil {
		return nil, err
	}
	return x.join(p, left, right)
}

// live returns the columns a result over relation set s carries: the join
// key of relation a for each predicate (a, b) with a in s and b in the plan
// but not in s. Nothing else is read above s — every predicate with both
// ends in s was applied below it, and one reaching outside the plan is never
// applied — so the root carries no columns. The rule depends only on s and
// the graph, so it holds for any tree over the same relations, spliced
// adaptive plans included.
func (x *executor) live(s bitset.Set) []colID {
	rest := x.all &^ s
	var ids []colID
	for _, e := range x.edges {
		switch {
		case s.Has(e.a) && rest.Has(e.b):
			ids = append(ids, colID{e.a, e.col})
		case s.Has(e.b) && rest.Has(e.a):
			ids = append(ids, colID{e.b, e.col})
		}
	}
	return ids
}

// scan presents a leaf's live columns as zero-copy views over the relation.
func (x *executor) scan(p *plan.Node) (*table, error) {
	if p.Rel < 0 || p.Rel >= len(x.inst.Relations) {
		return nil, fmt.Errorf("exec: plan references unknown relation %d", p.Rel)
	}
	start := time.Now()
	rel := x.inst.Relations[p.Rel]
	ids := x.live(p.Set)
	cols := make([][]int64, len(ids))
	for i, id := range ids {
		cols[i] = rel.Cols[id.name]
	}
	t := &table{ids: ids, cols: cols, rows: rel.Rows()}
	x.record("scan", p, t, start, 0)
	return t, nil
}

// join executes one join node over already-materialized children: the
// operator fills the match-index vectors, then gather builds the output's
// live columns from them.
func (x *executor) join(p *plan.Node, left, right *table) (*table, error) {
	start, batches := time.Now(), x.stats.Batches
	preds := x.spanning(left, right, p.Left.Set, p.Right.Set)
	alg := x.opts.Algorithm
	if x.opts.UsePlanAlgorithms && p.Algorithm != "" {
		alg = engine.AlgorithmByName(p.Algorithm)
	}
	x.lidx, x.ridx = x.lidx[:0], x.ridx[:0]
	var (
		kind string
		err  error
	)
	switch {
	case len(preds) == 0 || alg == engine.NestedLoopsAlg:
		kind, err = "nestedloops", x.nestedLoops(left, right, preds)
	case alg == engine.SortMergeAlg:
		kind, err = "sortmerge", x.sortMerge(preds)
	default:
		kind, err = "hash", x.hashJoin(left, right, preds)
	}
	if err != nil {
		return nil, err
	}
	out := x.gather(p, left, right)
	x.recycle(left)
	x.recycle(right)
	x.stats.Joins++
	x.stats.IntermediateRows += int64(out.rows)
	x.record(kind, p, out, start, x.stats.Batches-batches)
	return out, nil
}

// testHookOutput, when set by a test, sees every scan and join output.
var testHookOutput func(set bitset.Set, t *table)

// record closes one operator: batches is its own probe-batch count, not the
// running total.
func (x *executor) record(kind string, p *plan.Node, t *table, start time.Time, batches int64) {
	if testHookOutput != nil {
		testHookOutput(p.Set, t)
	}
	if !x.opts.CollectOps {
		return
	}
	x.stats.Ops = append(x.stats.Ops, OpStats{
		Kind:      kind,
		Set:       p.Set,
		Rows:      int64(t.rows),
		Estimated: p.Card,
		Batches:   batches,
		Nanos:     time.Since(start).Nanoseconds(),
	})
}

// spanning resolves the predicates crossing the (left, right) relation sets
// into column-vector pairs, reusing the executor's scratch slice. A crossing
// predicate's key columns are live in both children, so both are present.
func (x *executor) spanning(left, right *table, lset, rset bitset.Set) []pred {
	x.preds = x.preds[:0]
	for _, e := range x.edges {
		switch {
		case lset.Has(e.a) && rset.Has(e.b):
			x.preds = append(x.preds, pred{l: left.column(colID{e.a, e.col}), r: right.column(colID{e.b, e.col})})
		case lset.Has(e.b) && rset.Has(e.a):
			x.preds = append(x.preds, pred{l: left.column(colID{e.b, e.col}), r: right.column(colID{e.a, e.col})})
		}
	}
	return x.preds
}

// appendPair records one (left-row, right-row) match, failing with
// engine.ErrRowLimit once the matches exceed the row limit.
func (x *executor) appendPair(l, r int32) error {
	x.lidx = append(x.lidx, l)
	x.ridx = append(x.ridx, r)
	if len(x.lidx) > x.maxRows {
		return engine.ErrRowLimit
	}
	return nil
}

// gather materializes p's output from the accumulated match-index vectors:
// one tight gather loop per live column of p.Set, drawn from whichever child
// holds it, into a spare column.
func (x *executor) gather(p *plan.Node, left, right *table) *table {
	n := len(x.lidx)
	ids := x.live(p.Set)
	cols := make([][]int64, len(ids))
	for i, id := range ids {
		src, idx := right, x.ridx
		if p.Left.Set.Has(id.rel) {
			src, idx = left, x.lidx
		}
		vals := src.column(id)
		dst := x.column(n)
		for k, j := range idx {
			dst[k] = vals[j]
		}
		cols[i] = dst
	}
	return &table{ids: ids, cols: cols, rows: n, owned: true}
}

// column returns a column of length n for gather to overwrite: the last
// spare column, or a new one when that is too small.
func (x *executor) column(n int) []int64 {
	k := len(x.spare) - 1
	if k < 0 {
		return make([]int64, n)
	}
	c := x.spare[k]
	x.spare[k] = nil
	x.spare = x.spare[:k]
	if cap(c) < n {
		return make([]int64, n)
	}
	return c[:n]
}

// recycle hands a joined child's gathered columns to the spares. A scan's
// columns are views of the instance and stay untouched.
func (x *executor) recycle(t *table) {
	if t.owned {
		x.spare = append(x.spare, t.cols...)
	}
}

// resize returns buf with length n, reallocating only when it is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// hashes computes one 64-bit hash per row of cols[lo:hi], column at a time,
// into the executor's reusable buffer.
func (x *executor) hashes(cols [][]int64, lo, hi int) []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x.hbuf = resize(x.hbuf, hi-lo)
	h := x.hbuf
	for i := range h {
		h[i] = offset64
	}
	for _, c := range cols {
		seg := c[lo:hi]
		for i, v := range seg {
			hv := h[i] ^ uint64(v)
			h[i] = hv * prime64
		}
	}
	return h
}

// hashJoin builds a presized bucket-chained hash table on the smaller input
// — slot heads plus an int32 next-chain, capacity the next power of two at
// least twice the build cardinality, both reused from the executor's
// scratch — and probes the larger side in batches: hash a batch
// column-at-a-time, walk chains, verify key equality on the raw column
// vectors (collision safe), and emit match pairs. A slot head holds its
// chain's first row plus one, so 0 is empty and one clear empties the table;
// next holds plain row indices, −1 ending a chain. The probe compares the
// first key directly and looks at the others only when it matches.
func (x *executor) hashJoin(left, right *table, preds []pred) error {
	buildLeft := left.rows <= right.rows
	build, probe := left, right
	if !buildLeft {
		build, probe = right, left
	}
	x.bkeys, x.pkeys = x.bkeys[:0], x.pkeys[:0]
	for _, p := range preds {
		if buildLeft {
			x.bkeys, x.pkeys = append(x.bkeys, p.l), append(x.pkeys, p.r)
		} else {
			x.bkeys, x.pkeys = append(x.bkeys, p.r), append(x.pkeys, p.l)
		}
	}
	bcols, pcols := x.bkeys, x.pkeys

	n := build.rows
	size := 1
	for size < 2*n {
		size <<= 1
	}
	mask := uint64(size - 1)
	x.heads = resize(x.heads, size)
	x.next = resize(x.next, n)
	heads, next := x.heads, x.next
	clear(heads)
	bh := x.hashes(bcols, 0, n)
	for r := 0; r < n; r++ {
		slot := bh[r] & mask
		next[r] = heads[slot] - 1
		heads[slot] = int32(r + 1)
	}

	b0, p0 := bcols[0], pcols[0]
	for base := 0; base < probe.rows; base += x.batch {
		end := min(base+x.batch, probe.rows)
		ph := x.hashes(pcols, base, end)
		x.stats.Batches++
		for r := base; r < end; r++ {
			key := p0[r]
			for idx := heads[ph[r-base]&mask] - 1; idx >= 0; idx = next[idx] {
				if b0[idx] != key {
					continue
				}
				match := true
				for k := 1; k < len(bcols); k++ {
					if bcols[k][idx] != pcols[k][r] {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				var err error
				if buildLeft {
					err = x.appendPair(idx, int32(r))
				} else {
					err = x.appendPair(int32(r), idx)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// filterSel compacts the selection vector to the right-side rows whose
// residual predicate columns equal the left row's values.
func (x *executor) filterSel(preds []pred, lrow int32) {
	for _, p := range preds {
		lv := p.l[lrow]
		keep := x.sel[:0]
		for _, rb := range x.sel {
			if p.r[rb] == lv {
				keep = append(keep, rb)
			}
		}
		x.sel = keep
	}
}

// nestedLoops joins by comparing every pair, batching the inner side: each
// batch builds a selection vector from the first predicate and compacts it
// through the rest, so residual filtering never materializes rejected rows.
// With no predicates it is the Cartesian product.
func (x *executor) nestedLoops(left, right *table, preds []pred) error {
	for l := 0; l < left.rows; l++ {
		for base := 0; base < right.rows; base += x.batch {
			end := min(base+x.batch, right.rows)
			x.stats.Batches++
			if len(preds) == 0 {
				for r := base; r < end; r++ {
					if err := x.appendPair(int32(l), int32(r)); err != nil {
						return err
					}
				}
				continue
			}
			p0 := preds[0]
			lv := p0.l[l]
			x.sel = x.sel[:0]
			for r := base; r < end; r++ {
				if p0.r[r] == lv {
					x.sel = append(x.sel, int32(r))
				}
			}
			x.filterSel(preds[1:], int32(l))
			for _, r := range x.sel {
				if err := x.appendPair(int32(l), r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// argsort returns row indices of keys in ascending key order.
func argsort(keys []int64) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

// sortMerge sorts both inputs on the first predicate's key (via index
// permutations — the columns themselves never move) and merges equal-key
// runs; residual predicates filter each run block through the selection
// vector.
func (x *executor) sortMerge(preds []pred) error {
	p0 := preds[0]
	lp := argsort(p0.l)
	rp := argsort(p0.r)
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		lv, rv := p0.l[lp[i]], p0.r[rp[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			i2 := i
			for i2 < len(lp) && p0.l[lp[i2]] == lv {
				i2++
			}
			j2 := j
			for j2 < len(rp) && p0.r[rp[j2]] == rv {
				j2++
			}
			x.stats.Batches++
			for a := i; a < i2; a++ {
				la := lp[a]
				x.sel = append(x.sel[:0], rp[j:j2]...)
				x.filterSel(preds[1:], la)
				for _, rb := range x.sel {
					if err := x.appendPair(la, rb); err != nil {
						return err
					}
				}
			}
			i, j = i2, j2
		}
	}
	return nil
}
