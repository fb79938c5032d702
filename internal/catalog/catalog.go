// Package catalog holds the base-relation metadata the optimizer consumes:
// names, cardinalities, tuple widths and blocking factors. It corresponds to
// the paper's rel_data array (§3.2) — the abstract interpretation of each base
// relation that cost models need — extended with the physical attributes that
// the disk-nested-loops model of the Appendix can optionally derive blocking
// factors from.
package catalog

import (
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/bitset"
)

// Relation describes one base relation.
type Relation struct {
	// Name is a human-readable identifier, unique within a Catalog.
	Name string `json:"name"`
	// Cardinality is the (estimated) number of tuples. The paper holds these
	// in a wide-dynamic-range float (§4.1 footnote 2); so do we.
	Cardinality float64 `json:"cardinality"`
	// Width is the tuple width in bytes; zero means unknown. Specs and
	// requests carry it and validation rejects a negative one, but no cost
	// model reads it.
	Width int `json:"width,omitempty"`
}

// Catalog is an ordered collection of relations. The position of a relation
// in the catalog is its index in the optimizer's bitsets, and — following
// §5.3 — the catalog order is the arbitrary-but-fixed total order on relation
// names that the fan recurrence depends on.
type Catalog struct {
	rels   []Relation
	byName map[string]int
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{byName: make(map[string]int)}
}

// FromRelations builds a catalog from a relation list, preserving order.
func FromRelations(rels []Relation) (*Catalog, error) {
	c := New()
	for _, r := range rels {
		if _, err := c.Add(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Add appends a relation and returns its index.
func (c *Catalog) Add(r Relation) (int, error) {
	if r.Name == "" {
		return 0, errors.New("catalog: relation name must be nonempty")
	}
	if _, dup := c.byName[r.Name]; dup {
		return 0, fmt.Errorf("catalog: duplicate relation %q", r.Name)
	}
	if r.Cardinality < 0 || math.IsNaN(r.Cardinality) || math.IsInf(r.Cardinality, 0) {
		return 0, fmt.Errorf("catalog: relation %q has invalid cardinality %v", r.Name, r.Cardinality)
	}
	if r.Width < 0 {
		return 0, fmt.Errorf("catalog: relation %q has negative width %d", r.Name, r.Width)
	}
	if len(c.rels) >= bitset.MaxRelations {
		return 0, fmt.Errorf("catalog: at most %d relations are supported", bitset.MaxRelations)
	}
	idx := len(c.rels)
	c.rels = append(c.rels, r)
	c.byName[r.Name] = idx
	return idx, nil
}

// Len returns the number of relations.
func (c *Catalog) Len() int { return len(c.rels) }

// Index returns the index of the named relation.
func (c *Catalog) Index(name string) (int, bool) {
	i, ok := c.byName[name]
	return i, ok
}

// Names returns the relation names in catalog order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.rels))
	for i, r := range c.rels {
		out[i] = r.Name
	}
	return out
}

// Cardinalities returns the cardinalities in catalog order.
func (c *Catalog) Cardinalities() []float64 {
	out := make([]float64, len(c.rels))
	for i, r := range c.rels {
		out[i] = r.Cardinality
	}
	return out
}
