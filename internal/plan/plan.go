// Package plan represents bushy join-plan trees: the output of the
// blitzsplit optimizer and of the baseline optimizers, and the input of the
// execution engine. Every node is annotated with the relation set it
// computes, its estimated cardinality, and its cumulative estimated cost, so
// plans can be validated, rendered, compared, serialized, and — per §6.5 of
// the paper — post-annotated with the winning join algorithm by a single
// traversal.
package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
)

// Node is one operator in a plan tree. A leaf (Left == Right == nil) scans
// the base relation with index Rel; an inner node joins (or, when no
// predicate spans its children, computes the Cartesian product of) its two
// subtrees.
type Node struct {
	// Set is the set of base relations this subtree computes.
	Set bitset.Set `json:"set"`
	// Rel is the base relation index; meaningful only for leaves.
	Rel int `json:"rel,omitempty"`
	// Card is the estimated output cardinality.
	Card float64 `json:"card"`
	// Cost is the cumulative estimated cost of computing this subtree. Leaves
	// cost 0 (§3.1: cost(R) = 0).
	Cost float64 `json:"cost"`
	// Algorithm names the physical join algorithm chosen for this node, when
	// AttachAlgorithms has run; empty otherwise and on leaves.
	Algorithm string `json:"algorithm,omitempty"`
	// Left and Right are the child subtrees; both nil on leaves.
	Left  *Node `json:"left,omitempty"`
	Right *Node `json:"right,omitempty"`
}

// Leaf constructs a leaf node for base relation rel with the given
// cardinality.
func Leaf(rel int, card float64) *Node {
	return &Node{Set: bitset.Single(rel), Rel: rel, Card: card}
}

// IsLeaf reports whether n is a base-relation scan.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Relations returns the number of base relations in the subtree.
func (n *Node) Relations() int { return n.Set.Count() }

// Joins returns the number of join (inner) nodes in the subtree.
func (n *Node) Joins() int {
	if n.IsLeaf() {
		return 0
	}
	return 1 + n.Left.Joins() + n.Right.Joins()
}

// IsLeftDeep reports whether the tree is a left-deep vine: every right child
// is a leaf.
func (n *Node) IsLeftDeep() bool {
	if n.IsLeaf() {
		return true
	}
	return n.Right.IsLeaf() && n.Left.IsLeftDeep()
}

// Depth returns the height of the tree (a leaf has depth 1).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Walk visits every node of the subtree in post-order (children before
// parents).
func (n *Node) Walk(visit func(*Node)) {
	if !n.IsLeaf() {
		n.Left.Walk(visit)
		n.Right.Walk(visit)
	}
	visit(n)
}

// Validate checks structural invariants: children partition the parent's
// relation set, leaf sets are singletons matching Rel, cardinalities and
// costs are nonnegative, and costs are monotone (a parent costs at least as
// much as its children, κ″ being nonnegative).
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("plan: nil node")
	}
	if n.IsLeaf() {
		if !n.Set.IsSingleton() || n.Set != bitset.Single(n.Rel) {
			return fmt.Errorf("plan: leaf set %v does not match relation %d", n.Set, n.Rel)
		}
		if n.Cost != 0 {
			return fmt.Errorf("plan: leaf %v has nonzero cost %v", n.Set, n.Cost)
		}
		if n.Card < 0 || math.IsNaN(n.Card) {
			return fmt.Errorf("plan: leaf %v has invalid cardinality %v", n.Set, n.Card)
		}
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("plan: node %v has exactly one child", n.Set)
	}
	if n.Left.Set.Overlaps(n.Right.Set) {
		return fmt.Errorf("plan: children of %v overlap: %v ∩ %v", n.Set, n.Left.Set, n.Right.Set)
	}
	if n.Left.Set.Union(n.Right.Set) != n.Set {
		return fmt.Errorf("plan: children of %v do not cover it: %v ∪ %v", n.Set, n.Left.Set, n.Right.Set)
	}
	if n.Card < 0 || math.IsNaN(n.Card) {
		return fmt.Errorf("plan: node %v has invalid cardinality %v", n.Set, n.Card)
	}
	if n.Cost < n.Left.Cost || n.Cost < n.Right.Cost || math.IsNaN(n.Cost) {
		return fmt.Errorf("plan: node %v cost %v below child costs %v/%v",
			n.Set, n.Cost, n.Left.Cost, n.Right.Cost)
	}
	if err := n.Left.Validate(); err != nil {
		return err
	}
	return n.Right.Validate()
}

// RecomputeCost re-derives every node's cumulative cost bottom-up under the
// given model, using the nodes' recorded cardinalities, and returns the root
// cost. Useful for cross-checking an optimizer's bookkeeping and for
// re-costing a plan under a different model.
func (n *Node) RecomputeCost(m cost.Model) float64 {
	if n.IsLeaf() {
		n.Cost = 0
		return 0
	}
	l := n.Left.RecomputeCost(m)
	r := n.Right.RecomputeCost(m)
	n.Cost = l + r + cost.Total(m, n.Card, n.Left.Card, n.Right.Card)
	return n.Cost
}

// RecomputeCards re-derives every node's cardinality bottom-up from the base
// cardinalities and the join graph (§5.1 induced-subgraph semantics) and
// returns the root cardinality. Pass a nil graph for a pure Cartesian
// product.
func (n *Node) RecomputeCards(g *joingraph.Graph, cards []float64) float64 {
	if n.IsLeaf() {
		n.Card = cards[n.Rel]
		return n.Card
	}
	l := n.Left.RecomputeCards(g, cards)
	r := n.Right.RecomputeCards(g, cards)
	span := 1.0
	if g != nil {
		span = g.SpanProduct(n.Left.Set, n.Right.Set)
	}
	n.Card = l * r * span
	return n.Card
}

// AttachAlgorithms implements the §6.5 single traversal: for every join node
// it records the name of the component of min-model m that is cheapest for
// that node's cardinalities. Non-composite models label every join with the
// model's own name.
func (n *Node) AttachAlgorithms(m cost.Model) {
	n.Walk(func(node *Node) {
		if node.IsLeaf() {
			return
		}
		if composite, ok := m.(cost.Min); ok {
			node.Algorithm = composite.Cheapest(node.Card, node.Left.Card, node.Right.Card).Name()
		} else {
			node.Algorithm = m.Name()
		}
	})
}

// Expression renders the tree as a parenthesized join expression using the
// given relation names, e.g. "(A ⨯ D) ⨯ (B ⨯ C)". Any leaf whose name is
// missing — nil or too-short name slice, empty string, out-of-range relation
// index — renders as R<i>, so a plan rendered without a full name slice
// still produces a readable expression.
func (n *Node) Expression(names []string) string {
	var b strings.Builder
	n.expr(&b, names)
	return b.String()
}

func (n *Node) expr(b *strings.Builder, names []string) {
	if n.IsLeaf() {
		if n.Rel >= 0 && n.Rel < len(names) && names[n.Rel] != "" {
			b.WriteString(names[n.Rel])
		} else {
			fmt.Fprintf(b, "R%d", n.Rel)
		}
		return
	}
	b.WriteByte('(')
	n.Left.expr(b, names)
	b.WriteString(" ⨝ ")
	n.Right.expr(b, names)
	b.WriteByte(')')
}

// String renders the tree as an indented ASCII outline with per-node
// cardinality and cost annotations.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, "", "")
	return strings.TrimRight(b.String(), "\n")
}

func (n *Node) render(b *strings.Builder, prefix, childPrefix string) {
	b.WriteString(prefix)
	if n.IsLeaf() {
		fmt.Fprintf(b, "scan R%d  card=%.6g\n", n.Rel, n.Card)
		return
	}
	label := "join"
	if n.Algorithm != "" {
		label = "join[" + n.Algorithm + "]"
	}
	fmt.Fprintf(b, "%s %s  card=%.6g cost=%.6g\n", label, n.Set, n.Card, n.Cost)
	n.Left.render(b, childPrefix+"├─ ", childPrefix+"│  ")
	n.Right.render(b, childPrefix+"└─ ", childPrefix+"   ")
}

// Equal reports whether two trees have identical shape and relation sets
// (annotations are ignored). Join operands are compared as an unordered pair,
// so commuted plans compare equal.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Set != o.Set {
		return false
	}
	if n.IsLeaf() || o.IsLeaf() {
		return n.IsLeaf() && o.IsLeaf()
	}
	return (n.Left.Equal(o.Left) && n.Right.Equal(o.Right)) ||
		(n.Left.Equal(o.Right) && n.Right.Equal(o.Left))
}

// Clone returns a deep copy.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := *n
	cp.Left = n.Left.Clone()
	cp.Right = n.Right.Clone()
	return &cp
}

// MarshalIndent serializes the tree as indented JSON.
func (n *Node) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(n, "", "  ")
}

// FromJSON parses a plan tree and validates it.
func FromJSON(data []byte) (*Node, error) {
	var n Node
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}
