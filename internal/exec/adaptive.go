package exec

import (
	"fmt"
	"time"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/plan"
)

// The adaptive trigger rule. RunAdaptive re-optimizes after a join whose
// observed/estimated cardinality ratio (either direction, +1-smoothed)
// exceeds DefaultReoptRatio, unless both cardinalities are below
// DefaultReoptMinRows — tiny intermediates deviate by noise, and replanning
// them buys nothing — and replans at most DefaultMaxReopts times per
// execution.
const (
	DefaultReoptRatio   = 3.0
	DefaultMaxReopts    = 3
	DefaultReoptMinRows = 16
)

// GroupQuery is the remaining work at a re-optimization point, collapsed to
// group granularity: every materialized subtree and every not-yet-scanned
// base relation becomes one "relation" whose cardinality is observed (for
// materialized groups) or true (for base relations), with cross-group
// selectivities folded from the original join graph. A ReoptFunc optimizes
// it as an ordinary query; the skeleton's leaves index Groups.
type GroupQuery struct {
	// Groups holds each group's original-relation set, ordered by minimum
	// relation index (stable across equivalent frontiers).
	Groups []bitset.Set
	// Cards is the per-group cardinality, parallel to Groups.
	Cards []float64
	// Edges lists the cross-group join edges (Π of the original selectivities
	// spanning the pair); pairs connected only by selectivity-1 predicates or
	// not at all are absent — a Cartesian pair, which the optimizer handles.
	Edges []GroupEdge
}

// GroupEdge is one cross-group predicate bundle of a GroupQuery.
type GroupEdge struct {
	A, B        int
	Selectivity float64
}

// ReoptFunc re-optimizes a group query and returns a plan skeleton whose
// leaves are group indexes (leaf Rel == i means Groups[i]). The facade backs
// it with Engine.Optimize so re-planning rides the plan cache and budget
// governors; tests back it with baselines. Returning an error aborts only
// the re-optimization — execution continues on the current plan.
type ReoptFunc func(q GroupQuery) (*plan.Node, error)

// ReoptEvent records one adaptive trigger: a join whose observed cardinality
// deviated from its estimate beyond DefaultReoptRatio.
type ReoptEvent struct {
	// Set is the join output whose estimate missed; Estimated and Observed
	// are the two cardinalities and Deviation = max(r, 1/r) of their
	// (+1-smoothed) ratio.
	Set       bitset.Set `json:"set"`
	Estimated float64    `json:"estimated"`
	Observed  int64      `json:"observed"`
	Deviation float64    `json:"deviation"`
	// Groups is how many frontier groups the re-optimization covered.
	Groups int `json:"groups"`
	// Replanned says whether a new subplan was spliced in; when false, Err
	// explains why (re-optimizer error, too few groups, reopt budget spent).
	Replanned bool   `json:"replanned"`
	Err       string `json:"err,omitempty"`
}

// RunAdaptive executes the plan bottom-up, materializing one join at a time,
// and after each join compares the observed cardinality against the node's
// estimate. When the trigger rule above fires (and reopt is non-nil), the
// unexecuted remainder — materialized subtrees plus pending base relations,
// as a GroupQuery — is re-planned by reopt and the winning skeleton spliced
// over the current tree; execution continues on the new plan.
// Re-optimization is best-effort: its errors are recorded in the returned
// events, never fatal. With a nil reopt this never replans: it is Run with a
// different schedule and identical results.
func RunAdaptive(inst *engine.Instance, p *plan.Node, opts Options, reopt ReoptFunc) (*Result, error) {
	x, err := newExecutor(inst, p, opts)
	if err != nil {
		return nil, err
	}
	defer x.release()
	start := time.Now()
	d := &driver{x: x, reopt: reopt, avail: make(map[bitset.Set]*table)}
	cur := p
	reopts := 0
	for d.avail[cur.Set] == nil {
		if cur.IsLeaf() {
			if _, err := d.tableFor(cur); err != nil {
				return nil, err
			}
			continue
		}
		j := nextJoin(cur, d.avail)
		left, err := d.tableFor(j.Left)
		if err != nil {
			return nil, err
		}
		right, err := d.tableFor(j.Right)
		if err != nil {
			return nil, err
		}
		out, err := x.join(j, left, right)
		if err != nil {
			return nil, err
		}
		delete(d.avail, j.Left.Set)
		delete(d.avail, j.Right.Set)
		d.avail[j.Set] = out
		if j.Set == cur.Set {
			break
		}
		if next, ok := d.maybeReopt(cur, j, out, reopts); ok {
			cur = next
			reopts++
		}
	}
	root := d.avail[cur.Set]
	x.finish(root, start)
	return &Result{Rows: int64(root.rows), Stats: x.stats, Plan: cur, Events: d.events}, nil
}

// driver is RunAdaptive's bookkeeping: the materialized-result map keyed by
// relation set, and the event log.
type driver struct {
	x      *executor
	reopt  ReoptFunc
	avail  map[bitset.Set]*table
	events []ReoptEvent
}

// tableFor returns the materialized table for a ready node: a prior join
// output from avail, or a (memoized) leaf scan.
func (d *driver) tableFor(n *plan.Node) (*table, error) {
	if t, ok := d.avail[n.Set]; ok {
		return t, nil
	}
	t, err := d.x.scan(n)
	if err != nil {
		return nil, err
	}
	d.avail[n.Set] = t
	return t, nil
}

// nextJoin finds the first (post-order, left-to-right) join node both of
// whose children are ready — a leaf or an already-materialized set. Returns
// nil when n itself is ready.
func nextJoin(n *plan.Node, avail map[bitset.Set]*table) *plan.Node {
	if n.IsLeaf() || avail[n.Set] != nil {
		return nil
	}
	if j := nextJoin(n.Left, avail); j != nil {
		return j
	}
	if j := nextJoin(n.Right, avail); j != nil {
		return j
	}
	return n
}

// maybeReopt applies the trigger rule to a just-executed join and, when it
// fires, re-plans the remaining groups and splices. It returns the new tree
// and true only when a replan actually landed.
func (d *driver) maybeReopt(cur, j *plan.Node, out *table, reopts int) (*plan.Node, bool) {
	if d.reopt == nil || reopts >= DefaultMaxReopts {
		return nil, false
	}
	obs := int64(out.rows)
	est := j.Card
	dev := (float64(obs) + 1) / (est + 1)
	if dev < 1 {
		dev = 1 / dev
	}
	if dev <= DefaultReoptRatio {
		return nil, false
	}
	if obs < DefaultReoptMinRows && est < DefaultReoptMinRows {
		return nil, false
	}
	ev := ReoptEvent{Set: j.Set, Estimated: est, Observed: obs, Deviation: dev}
	groups, parts := d.frontier(cur)
	ev.Groups = len(groups)
	if len(groups) < 3 {
		// Two groups leave a single join with no order to choose.
		ev.Err = "fewer than 3 remaining groups"
		d.events = append(d.events, ev)
		return nil, false
	}
	gq := d.groupQuery(groups)
	skeleton, err := d.reopt(gq)
	if err == nil && skeleton == nil {
		err = fmt.Errorf("exec: re-optimizer returned a nil skeleton")
	}
	var next *plan.Node
	if err == nil {
		next, err = plan.Splice(skeleton, parts)
	}
	if err == nil && next.Set != cur.Set {
		err = fmt.Errorf("exec: spliced plan covers %v, want %v", next.Set, cur.Set)
	}
	if err != nil {
		ev.Err = err.Error()
		d.events = append(d.events, ev)
		return nil, false
	}
	ev.Replanned = true
	d.events = append(d.events, ev)
	return next, true
}

// frontier collects the current tree's executable units: maximal
// materialized subtrees and pending leaves, ordered by minimum relation
// index. parts[i] is the subtree to splice for group i.
func (d *driver) frontier(cur *plan.Node) ([]bitset.Set, []*plan.Node) {
	var nodes []*plan.Node
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.IsLeaf() || d.avail[n.Set] != nil {
			nodes = append(nodes, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(cur)
	// Order by min relation index: equivalent frontiers present the same
	// group query regardless of tree shape, keeping re-planning cacheable.
	for i := 1; i < len(nodes); i++ {
		for k := i; k > 0 && nodes[k].Set.Min() < nodes[k-1].Set.Min(); k-- {
			nodes[k], nodes[k-1] = nodes[k-1], nodes[k]
		}
	}
	sets := make([]bitset.Set, len(nodes))
	for i, n := range nodes {
		sets[i] = n.Set
	}
	return sets, nodes
}

// groupQuery folds the original graph down to group granularity: observed
// (or true base) cardinalities, and one edge per group pair connected by at
// least one selective predicate.
func (d *driver) groupQuery(groups []bitset.Set) GroupQuery {
	gq := GroupQuery{Groups: groups, Cards: make([]float64, len(groups))}
	for i, s := range groups {
		if t, ok := d.avail[s]; ok {
			gq.Cards[i] = float64(t.rows)
		} else {
			// A pending base relation: its true cardinality is known exactly.
			gq.Cards[i] = float64(d.x.inst.Relations[s.Min()].Rows())
		}
	}
	if g := d.x.inst.Graph; g != nil {
		for a := range groups {
			for b := a + 1; b < len(groups); b++ {
				if s := g.SpanProduct(groups[a], groups[b]); s < 1 {
					gq.Edges = append(gq.Edges, GroupEdge{A: a, B: b, Selectivity: s})
				}
			}
		}
	}
	return gq
}
