// Package spec defines the on-disk JSON format for join-order optimization
// problems consumed by the command-line tools: a list of relations with
// cardinalities plus a list of equi-join predicates with selectivities.
//
//	{
//	  "relations": [
//	    {"name": "customer", "cardinality": 150000},
//	    {"name": "orders",   "cardinality": 1500000}
//	  ],
//	  "joins": [
//	    {"a": "customer", "b": "orders", "selectivity": 6.7e-6}
//	  ]
//	}
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/joingraph"
)

// Typed validation errors. Every rejection of a structurally well-formed
// JSON document wraps exactly one of these sentinels, so callers (and the
// round-trip fuzz target) can distinguish failure classes with errors.Is
// instead of string matching.
var (
	// ErrNoRelations rejects a spec with an empty or missing relation list.
	ErrNoRelations = errors.New("spec: no relations")
	// ErrBadName rejects a relation with an empty name.
	ErrBadName = errors.New("spec: relation name must be nonempty")
	// ErrDuplicateRelation rejects two relations sharing a name.
	ErrDuplicateRelation = errors.New("spec: duplicate relation")
	// ErrBadCardinality rejects NaN, ±Inf, and negative cardinalities. (JSON
	// itself cannot encode NaN or Inf, but File values are also built in
	// code and re-validated after round trips.)
	ErrBadCardinality = errors.New("spec: cardinality must be finite and nonnegative")
	// ErrBadWidth rejects a negative tuple width.
	ErrBadWidth = errors.New("spec: width must be nonnegative")
	// ErrUnknownRelation rejects a join referencing an undeclared relation.
	ErrUnknownRelation = errors.New("spec: join references unknown relation")
	// ErrSelfJoin rejects a join predicate from a relation to itself.
	ErrSelfJoin = errors.New("spec: join relates a relation to itself")
	// ErrDuplicateJoin rejects two predicates on the same relation pair.
	ErrDuplicateJoin = errors.New("spec: duplicate join predicate")
	// ErrBadSelectivity rejects selectivities outside (0, 1], including NaN.
	ErrBadSelectivity = errors.New("spec: selectivity must be in (0, 1]")
)

// Relation is one base relation in a spec file. Its position in the
// relation list is its index in the optimizer's bitsets.
type Relation struct {
	// Name is a human-readable identifier, unique within a spec.
	Name string `json:"name"`
	// Cardinality is the (estimated) number of tuples. The paper holds these
	// in a wide-dynamic-range float (§4.1 footnote 2); so do we.
	Cardinality float64 `json:"cardinality"`
	// Width is the tuple width in bytes; zero means unknown. Specs and
	// requests carry it and validation rejects a negative one, but no cost
	// model reads it.
	Width int `json:"width,omitempty"`
}

// Join is one equi-join predicate in a spec file.
type Join struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	Selectivity float64 `json:"selectivity"`
}

// File is a parsed query spec.
type File struct {
	Relations []Relation `json:"relations"`
	Joins     []Join     `json:"joins,omitempty"`
}

// Parse decodes and validates a spec.
func Parse(data []byte) (*File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if _, _, err := f.Query(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks the spec's semantic constraints and returns an error
// wrapping one of the typed sentinels above on the first violation. Parse
// calls it automatically; call it directly on File values assembled in code.
//
// Up to scanLimit relations it scans the decoded slices and allocates
// nothing; above it, it indexes names and pairs in maps so that a body of
// thousands of relations stays linear. Both paths report the same first
// violation with the same text.
func (f *File) Validate() error {
	if len(f.Relations) == 0 {
		return ErrNoRelations
	}
	if len(f.Relations) > scanLimit {
		return f.validateIndexed()
	}
	for i, r := range f.Relations {
		if r.Name == "" {
			return ErrBadName
		}
		for _, prev := range f.Relations[:i] {
			if prev.Name == r.Name {
				return fmt.Errorf("%w: %q", ErrDuplicateRelation, r.Name)
			}
		}
		if err := r.check(); err != nil {
			return err
		}
	}
	// seen[a] has bit b set once a join on the pair {a, b} was accepted.
	var seen [scanLimit]uint64
	for _, j := range f.Joins {
		a, b := f.index(j.A), f.index(j.B)
		if a < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownRelation, j.A)
		}
		if b < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownRelation, j.B)
		}
		if err := j.check(); err != nil {
			return err
		}
		if seen[a]&(1<<uint(b)) != 0 {
			return j.duplicate()
		}
		seen[a] |= 1 << uint(b)
		seen[b] |= 1 << uint(a)
	}
	return nil
}

// scanLimit is the relation count up to which Validate scans instead of
// building maps: the join pairs of up to 64 relations fit in a 64×64 bit
// matrix on the stack. A 1 MiB body can hold about 20,000 relations, where
// scans would be quadratic.
const scanLimit = 64

// validateIndexed is Validate with names and join pairs indexed in maps.
func (f *File) validateIndexed() error {
	names := make(map[string]bool, len(f.Relations))
	for _, r := range f.Relations {
		if r.Name == "" {
			return ErrBadName
		}
		if names[r.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateRelation, r.Name)
		}
		names[r.Name] = true
		if err := r.check(); err != nil {
			return err
		}
	}
	type pair struct{ a, b string }
	joins := make(map[pair]bool, len(f.Joins))
	for _, j := range f.Joins {
		if !names[j.A] {
			return fmt.Errorf("%w: %q", ErrUnknownRelation, j.A)
		}
		if !names[j.B] {
			return fmt.Errorf("%w: %q", ErrUnknownRelation, j.B)
		}
		if err := j.check(); err != nil {
			return err
		}
		key := pair{j.A, j.B}
		if j.B < j.A {
			key = pair{j.B, j.A}
		}
		if joins[key] {
			return j.duplicate()
		}
		joins[key] = true
	}
	return nil
}

// index returns the position of the relation named name, or −1.
func (f *File) index(name string) int {
	for i, r := range f.Relations {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// check validates a relation's cardinality and width.
func (r Relation) check() error {
	if r.Cardinality < 0 || math.IsNaN(r.Cardinality) || math.IsInf(r.Cardinality, 0) {
		return fmt.Errorf("%w: relation %q has cardinality %v", ErrBadCardinality, r.Name, r.Cardinality)
	}
	if r.Width < 0 {
		return fmt.Errorf("%w: relation %q has width %d", ErrBadWidth, r.Name, r.Width)
	}
	return nil
}

// check validates a join on two known relations: no self-join, and a
// selectivity in (0, 1].
func (j Join) check() error {
	if j.A == j.B {
		return fmt.Errorf("%w: %q", ErrSelfJoin, j.A)
	}
	// !(x > 0 && x ≤ 1) also catches NaN, which fails every comparison.
	if !(j.Selectivity > 0 && j.Selectivity <= 1) {
		return fmt.Errorf("%w: join %s-%s has selectivity %v", ErrBadSelectivity, j.A, j.B, j.Selectivity)
	}
	return nil
}

// duplicate is the error for a second join on j's pair, naming the pair in
// string order.
func (j Join) duplicate() error {
	a, b := j.A, j.B
	if b < a {
		a, b = b, a
	}
	return fmt.Errorf("%w: %s-%s", ErrDuplicateJoin, a, b)
}

// Load reads and parses a spec file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Query materializes a valid spec (see Validate) into the optimizer's input
// representation, returning the query and the relation names in index order.
// Its one check beyond Validate's is the optimizer's limit of
// bitset.MaxRelations relations.
func (f *File) Query() (core.Query, []string, error) {
	n := len(f.Relations)
	if n > bitset.MaxRelations {
		return core.Query{}, nil, fmt.Errorf("spec: %d relations exceeds the maximum %d", n, bitset.MaxRelations)
	}
	cards := make([]float64, n)
	names := make([]string, n)
	for i, r := range f.Relations {
		cards[i], names[i] = r.Cardinality, r.Name
	}
	var g *joingraph.Graph
	if len(f.Joins) > 0 {
		g = joingraph.New(n)
		for _, j := range f.Joins {
			if err := g.AddEdge(slices.Index(names, j.A), slices.Index(names, j.B), j.Selectivity); err != nil {
				return core.Query{}, nil, err
			}
		}
	}
	return core.Query{Cards: cards, Graph: g}, names, nil
}

// Example returns a small self-describing sample spec (the paper's Figure-3
// query shape with plausible numbers), used by `blitzsplit -example`.
func Example() *File {
	return &File{
		Relations: []Relation{
			{Name: "A", Cardinality: 1000},
			{Name: "B", Cardinality: 5000},
			{Name: "C", Cardinality: 200},
			{Name: "D", Cardinality: 80000},
		},
		Joins: []Join{
			{A: "A", B: "B", Selectivity: 0.001},
			{A: "A", B: "C", Selectivity: 0.005},
			{A: "B", B: "C", Selectivity: 0.002},
			{A: "A", B: "D", Selectivity: 0.0001},
		},
	}
}
