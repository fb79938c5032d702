package plancache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"blitzsplit/internal/core"
	"blitzsplit/internal/plan"
)

// join builds an inner node over l and r with the given cardinality and
// join cost.
func join(l, r *plan.Node, card, cost float64) *plan.Node {
	return &plan.Node{
		Set:  l.Set.Union(r.Set),
		Card: card,
		Cost: l.Cost + r.Cost + cost,
		Left: l, Right: r,
	}
}

// goldenEntries is a fixed set of cache entries covering every record shape
// the snapshot encoder writes: a single relation, a left-deep chain plan, a
// bushy clique plan, and a plan whose cardinalities and costs are not
// integers.
func goldenEntries() []struct {
	key string
	e   Entry
} {
	single := plan.Leaf(0, 1000)

	chain := plan.Leaf(2, 500)
	for i, rel := range []int{0, 3, 1, 4} {
		chain = join(chain, plan.Leaf(rel, float64(100*(rel+1))), float64(10*(i+1)), float64(1000*(i+1)))
	}

	ab := join(plan.Leaf(0, 10), plan.Leaf(5, 60), 600, 600)
	cd := join(plan.Leaf(3, 40), plan.Leaf(1, 20), 800, 800)
	ef := join(plan.Leaf(2, 30), plan.Leaf(4, 50), 1500, 1500)
	clique := join(join(ab, cd, 4800, 4800), ef, 72000, 72000)

	frac := join(join(plan.Leaf(1, 0.1), plan.Leaf(0, 2.5), 0.25, 0.1+0.2), plan.Leaf(2, 1e-3), 2.5e-4, 1.0/3)

	counters := func(n uint64) core.Counters {
		return core.Counters{SubsetsVisited: n, LoopIters: 3 * n, KppEvals: 2 * n,
			KpEvals: n, CondHits: n + 1, ThresholdSkips: n / 2, Passes: 1}
	}
	return []struct {
		key string
		e   Entry
	}{
		{"single\x00opts", Entry{Plan: single, Cost: 0, Cardinality: 1000, Counters: counters(0)}},
		{"chain\x00\xffopts", Entry{Plan: chain, Cost: chain.Cost, Cardinality: chain.Card, Counters: counters(26)}},
		{"clique", Entry{Plan: clique, Cost: clique.Cost, Cardinality: clique.Card, Counters: counters(57)}},
		{"fractional", Entry{Plan: frac, Cost: frac.Cost, Cardinality: frac.Card, Counters: counters(4)}},
	}
}

// TestSnapshotBytesGolden pins the snapshot format byte for byte: a snapshot
// of goldenEntries must hash to the value recorded when version 2 was
// defined, so no change to how the cache stores plans can drift the bytes a
// restarted node or a peer of the same version reads. The snapshot must also
// restore every entry's scalars, counters and shape.
func TestSnapshotBytesGolden(t *testing.T) {
	const want = "1337e8b65a4e94d2320b4ac6064c2b18413cc4908d53c1dde5dbe36b4e4460ef"
	c := New(1<<20, 1)
	for _, g := range goldenEntries() {
		if err := g.e.Plan.Validate(); err != nil {
			t.Fatalf("%q: %v", g.key, err)
		}
		c.Put(g.key, g.e)
	}
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot of the golden entries hashes to %s, want %s (%d bytes)", got, want, buf.Len())
	}
	restored := New(1<<20, 1)
	if st, err := restored.LoadSnapshot(&buf); err != nil || st.Loaded != len(goldenEntries()) {
		t.Fatalf("restore: %+v, %v", st, err)
	}
	for _, g := range goldenEntries() {
		got, ok := restored.Get(g.key)
		if !ok || got.Cost != g.e.Cost || got.Cardinality != g.e.Cardinality || got.Counters != g.e.Counters {
			t.Fatalf("%q restored as %+v (present %v)", g.key, got, ok)
		}
		sameShape(t, g.e.Plan, got.Plan)
	}
}
