package catalog

import (
	"encoding/json"
	"math"
	"testing"

	"blitzsplit/internal/bitset"
)

func TestAddAndLookup(t *testing.T) {
	c := New()
	i, err := c.Add(Relation{Name: "orders", Cardinality: 1e6, Width: 64})
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Errorf("first index = %d, want 0", i)
	}
	j, err := c.Add(Relation{Name: "lineitem", Cardinality: 6e6})
	if err != nil {
		t.Fatal(err)
	}
	if j != 1 {
		t.Errorf("second index = %d, want 1", j)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if idx, ok := c.Index("orders"); !ok || idx != 0 {
		t.Errorf("Index(orders) = %d,%v", idx, ok)
	}
	if _, ok := c.Index("nope"); ok {
		t.Error("Index(nope) should miss")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "orders" || got[1] != "lineitem" {
		t.Errorf("Names = %v", got)
	}
	if got := c.Cardinalities(); len(got) != 2 || got[0] != 1e6 || got[1] != 6e6 {
		t.Errorf("Cardinalities = %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	cases := []Relation{
		{Name: "", Cardinality: 10},
		{Name: "neg", Cardinality: -1},
		{Name: "nan", Cardinality: math.NaN()},
		{Name: "inf", Cardinality: math.Inf(1)},
		{Name: "w", Cardinality: 1, Width: -3},
	}
	for _, r := range cases {
		c := New()
		if _, err := c.Add(r); err == nil {
			t.Errorf("Add(%+v) succeeded, want error", r)
		}
	}
	c := New()
	if _, err := c.Add(Relation{Name: "dup", Cardinality: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(Relation{Name: "dup", Cardinality: 2}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestAddCapacityLimit(t *testing.T) {
	c := New()
	for i := 0; i < bitset.MaxRelations; i++ {
		if _, err := c.Add(Relation{Name: names(i), Cardinality: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Add(Relation{Name: "overflow", Cardinality: 1}); err == nil {
		t.Error("exceeding MaxRelations accepted")
	}
}

func names(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// TestJSONRoundTrip: a relation list survives the JSON form the spec format
// and blitzd requests carry (name, cardinality, width when set) and rebuilds
// the same catalog.
func TestJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal([]Relation{{Name: "a", Cardinality: 12.5, Width: 40}, {Name: "b", Cardinality: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"name":"a","cardinality":12.5,"width":40},{"name":"b","cardinality":7}]`; string(data) != want {
		t.Errorf("JSON = %s, want %s", data, want)
	}
	var rels []Relation
	if err := json.Unmarshal(data, &rels); err != nil {
		t.Fatal(err)
	}
	got, err := FromRelations(rels)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.rels[0].Width != 40 || got.Cardinalities()[1] != 7 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if idx, ok := got.Index("b"); !ok || idx != 1 {
		t.Error("round trip lost name index")
	}
}

func TestFromRelations(t *testing.T) {
	c, err := FromRelations([]Relation{{Name: "x", Cardinality: 3}, {Name: "y", Cardinality: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if _, err := FromRelations([]Relation{{Name: "", Cardinality: 3}}); err == nil {
		t.Error("invalid relation accepted")
	}
}
