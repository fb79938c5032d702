package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestParseValid(t *testing.T) {
	data := []byte(`{
		"relations": [
			{"name": "A", "cardinality": 10},
			{"name": "B", "cardinality": 20}
		],
		"joins": [{"a": "A", "b": "B", "selectivity": 0.5}]
	}`)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	q, names, err := f.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cards) != 2 || q.Cards[1] != 20 {
		t.Errorf("cards = %v", q.Cards)
	}
	if names[0] != "A" || names[1] != "B" {
		t.Errorf("names = %v", names)
	}
	if q.Graph == nil || q.Graph.Selectivity(0, 1) != 0.5 {
		t.Error("graph wrong")
	}
}

// TestQueryRelationLimit: a valid spec with more relations than the
// optimizer's bitsets hold fails in Query, and so in Parse.
func TestQueryRelationLimit(t *testing.T) {
	var f File
	for i := 0; i <= 30; i++ {
		f.Relations = append(f.Relations, Relation{Name: fmt.Sprintf("r%d", i), Cardinality: 1})
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err == nil {
		t.Error("31 relations accepted")
	}
	f.Relations = f.Relations[:30]
	if _, _, err := f.Query(); err != nil {
		t.Errorf("30 relations rejected: %v", err)
	}
}

// TestFileQueryFromRelations: Query builds from the relation list in its
// order, and a list with an invalid relation does not parse.
func TestFileQueryFromRelations(t *testing.T) {
	f := File{Relations: []Relation{{Name: "x", Cardinality: 3}, {Name: "y", Cardinality: 4}}}
	q, names, err := f.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cards) != 2 || q.Cards[0] != 3 || q.Cards[1] != 4 {
		t.Errorf("cards = %v", q.Cards)
	}
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
	if _, err := Parse([]byte(`{"relations":[{"name":"","cardinality":3}]}`)); err == nil {
		t.Error("invalid relation accepted")
	}
}

// TestRelationJSONRoundTrip: a relation list survives the JSON form the spec
// format and blitzd requests carry (name, cardinality, width when set) and
// builds the same query.
func TestRelationJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal([]Relation{{Name: "a", Cardinality: 12.5, Width: 40}, {Name: "b", Cardinality: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"name":"a","cardinality":12.5,"width":40},{"name":"b","cardinality":7}]`; string(data) != want {
		t.Errorf("JSON = %s, want %s", data, want)
	}
	var f File
	if err := json.Unmarshal(data, &f.Relations); err != nil {
		t.Fatal(err)
	}
	if len(f.Relations) != 2 || f.Relations[0].Width != 40 || f.Relations[1].Width != 0 {
		t.Errorf("relations = %+v", f.Relations)
	}
	q, names, err := f.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cards) != 2 || q.Cards[0] != 12.5 || q.Cards[1] != 7 || names[1] != "b" {
		t.Errorf("round trip mismatch: cards %v, names %v", q.Cards, names)
	}
}

func TestParseNoJoins(t *testing.T) {
	f, err := Parse([]byte(`{"relations":[{"name":"X","cardinality":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := f.Query()
	if err != nil {
		t.Fatal(err)
	}
	if q.Graph != nil {
		t.Error("expected nil graph for a product query")
	}
}

// TestParseRejects drives every error path of Parse and pins each to its
// typed sentinel (nil sentinel means "any error", for failures that happen
// below the JSON layer).
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want error
	}{
		{"garbage", `nope`, nil},
		{"unknown field", `{"relations":[{"name":"A","cardinality":1}],"bogus":1}`, nil},
		{"no relations", `{"joins":[]}`, ErrNoRelations},
		{"empty relation list", `{"relations":[]}`, ErrNoRelations},
		{"empty name", `{"relations":[{"name":"","cardinality":1}]}`, ErrBadName},
		{"dup relation", `{"relations":[{"name":"A","cardinality":1},{"name":"A","cardinality":2}]}`, ErrDuplicateRelation},
		{"negative cardinality", `{"relations":[{"name":"A","cardinality":-3}]}`, ErrBadCardinality},
		{"infinite cardinality", `{"relations":[{"name":"A","cardinality":1e999}]}`, nil},
		{"negative width", `{"relations":[{"name":"A","cardinality":1,"width":-8}]}`, ErrBadWidth},
		{"unknown join rel", `{"relations":[{"name":"A","cardinality":1}],"joins":[{"a":"A","b":"Z","selectivity":0.5}]}`, ErrUnknownRelation},
		{"unknown join a", `{"relations":[{"name":"A","cardinality":1}],"joins":[{"a":"Z","b":"A","selectivity":0.5}]}`, ErrUnknownRelation},
		{"self join", `{"relations":[{"name":"A","cardinality":1}],"joins":[{"a":"A","b":"A","selectivity":0.5}]}`, ErrSelfJoin},
		{"selectivity above one", `{"relations":[{"name":"A","cardinality":1},{"name":"B","cardinality":1}],"joins":[{"a":"A","b":"B","selectivity":7}]}`, ErrBadSelectivity},
		{"zero selectivity", `{"relations":[{"name":"A","cardinality":1},{"name":"B","cardinality":1}],"joins":[{"a":"A","b":"B","selectivity":0}]}`, ErrBadSelectivity},
		{"negative selectivity", `{"relations":[{"name":"A","cardinality":1},{"name":"B","cardinality":1}],"joins":[{"a":"A","b":"B","selectivity":-0.5}]}`, ErrBadSelectivity},
		{"missing selectivity", `{"relations":[{"name":"A","cardinality":1},{"name":"B","cardinality":1}],"joins":[{"a":"A","b":"B"}]}`, ErrBadSelectivity},
		{"dup join", `{"relations":[{"name":"A","cardinality":1},{"name":"B","cardinality":1}],"joins":[{"a":"A","b":"B","selectivity":0.5},{"a":"B","b":"A","selectivity":0.2}]}`, ErrDuplicateJoin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.body))
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %q does not wrap %q", err, tc.want)
			}
		})
	}
}

// TestValidateNonEncodableFloats covers the invalid floats JSON cannot
// express: File values assembled in code must still be rejected with the
// typed sentinels.
func TestValidateNonEncodableFloats(t *testing.T) {
	cases := []struct {
		name string
		file File
		want error
	}{
		{"NaN cardinality",
			File{Relations: []Relation{{Name: "A", Cardinality: math.NaN()}}},
			ErrBadCardinality},
		{"+Inf cardinality",
			File{Relations: []Relation{{Name: "A", Cardinality: math.Inf(1)}}},
			ErrBadCardinality},
		{"-Inf cardinality",
			File{Relations: []Relation{{Name: "A", Cardinality: math.Inf(-1)}}},
			ErrBadCardinality},
		{"NaN selectivity",
			File{
				Relations: []Relation{{Name: "A", Cardinality: 1}, {Name: "B", Cardinality: 2}},
				Joins:     []Join{{A: "A", B: "B", Selectivity: math.NaN()}},
			},
			ErrBadSelectivity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.file.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.json")
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Relations) != 4 || len(f.Joins) != 4 {
		t.Errorf("example shape: %d relations, %d joins", len(f.Relations), len(f.Joins))
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExampleIsValid(t *testing.T) {
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Errorf("example spec invalid: %v", err)
	}
}

// TestDuplicateJoinVariants pins the duplicate-predicate contract the facade
// relies on: spec files keep at most one predicate per relation pair — every
// duplicate shape is rejected with ErrDuplicateJoin regardless of
// orientation, selectivity, or multiplicity — while distinct pairs sharing
// relations remain legal. (The facade's Query builder, by contrast, folds
// duplicates as a conjunction; the spec layer is the strict one.)
func TestDuplicateJoinVariants(t *testing.T) {
	rels := []Relation{
		{Name: "A", Cardinality: 10},
		{Name: "B", Cardinality: 20},
		{Name: "C", Cardinality: 30},
	}
	cases := []struct {
		name    string
		joins   []Join
		wantDup bool
	}{
		{"same orientation", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "A", B: "B", Selectivity: 0.5},
		}, true},
		{"reversed orientation", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "B", B: "A", Selectivity: 0.5},
		}, true},
		{"different selectivity still duplicate", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "A", B: "B", Selectivity: 0.1},
		}, true},
		{"triple duplicate", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "B", B: "A", Selectivity: 0.4},
			{A: "A", B: "B", Selectivity: 0.3},
		}, true},
		{"duplicate after valid pair", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "B", B: "C", Selectivity: 0.4},
			{A: "C", B: "B", Selectivity: 0.3},
		}, true},
		{"shared relation, distinct pairs", []Join{
			{A: "A", B: "B", Selectivity: 0.5},
			{A: "B", B: "C", Selectivity: 0.4},
			{A: "A", B: "C", Selectivity: 0.3},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &File{Relations: rels, Joins: tc.joins}
			err := f.Validate()
			if tc.wantDup {
				if !errors.Is(err, ErrDuplicateJoin) {
					t.Fatalf("want ErrDuplicateJoin, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid join set rejected: %v", err)
			}
		})
	}
}

// TestValidateScanMatchesIndexed runs every error case through both of
// Validate's paths: as written (at most 64 relations, the scans) and with
// 65 valid relations appended (the maps). Appended relations are valid and
// precede every join, so the first violation stays the same; both paths
// must report it with the same kind and text.
func TestValidateScanMatchesIndexed(t *testing.T) {
	rel := func(name string) Relation { return Relation{Name: name, Cardinality: 10} }
	ab := []Relation{rel("A"), rel("B")}
	abc := []Relation{rel("A"), rel("B"), rel("C")}
	edge := func(a, b string, sel float64) Join { return Join{A: a, B: b, Selectivity: sel} }
	wide := make([]Relation, scanLimit)
	for i := range wide {
		wide[i] = rel(fmt.Sprintf("w%02d", i))
	}
	cases := []struct {
		name string
		file File
		want error
	}{
		{"valid", File{Relations: abc, Joins: []Join{edge("A", "B", 0.1), edge("C", "B", 1)}}, nil},
		{"empty name", File{Relations: []Relation{rel("")}}, ErrBadName},
		{"empty name after a valid one", File{Relations: []Relation{rel("A"), rel("")}}, ErrBadName},
		{"duplicate relation", File{Relations: []Relation{rel("A"), rel("B"), rel("A")}}, ErrDuplicateRelation},
		{"duplicate before its bad cardinality",
			File{Relations: []Relation{rel("A"), {Name: "A", Cardinality: -1}}}, ErrDuplicateRelation},
		{"negative cardinality", File{Relations: []Relation{{Name: "A", Cardinality: -1}}}, ErrBadCardinality},
		{"NaN cardinality", File{Relations: []Relation{{Name: "A", Cardinality: math.NaN()}}}, ErrBadCardinality},
		{"+Inf cardinality", File{Relations: []Relation{rel("A"), {Name: "B", Cardinality: math.Inf(1)}}}, ErrBadCardinality},
		{"negative width", File{Relations: []Relation{{Name: "A", Cardinality: 1, Width: -8}}}, ErrBadWidth},
		{"relation error before join error",
			File{Relations: []Relation{rel("A"), {Name: "B", Width: -1}}, Joins: []Join{edge("A", "Z", 0.1)}}, ErrBadWidth},
		{"unknown left", File{Relations: ab, Joins: []Join{edge("Z", "B", 0.1)}}, ErrUnknownRelation},
		{"unknown right", File{Relations: ab, Joins: []Join{edge("A", "Z", 0.1)}}, ErrUnknownRelation},
		{"both unknown", File{Relations: ab, Joins: []Join{edge("Y", "Z", 0.1)}}, ErrUnknownRelation},
		{"unknown before self-join", File{Relations: ab, Joins: []Join{edge("Z", "Z", 0.1)}}, ErrUnknownRelation},
		{"self-join", File{Relations: ab, Joins: []Join{edge("A", "A", 0.1)}}, ErrSelfJoin},
		{"self-join before bad selectivity", File{Relations: ab, Joins: []Join{edge("B", "B", 2)}}, ErrSelfJoin},
		{"zero selectivity", File{Relations: ab, Joins: []Join{edge("A", "B", 0)}}, ErrBadSelectivity},
		{"selectivity above one", File{Relations: ab, Joins: []Join{edge("A", "B", 1.5)}}, ErrBadSelectivity},
		{"NaN selectivity", File{Relations: ab, Joins: []Join{edge("A", "B", math.NaN())}}, ErrBadSelectivity},
		{"duplicate join", File{Relations: ab, Joins: []Join{edge("A", "B", 0.1), edge("A", "B", 0.2)}}, ErrDuplicateJoin},
		{"duplicate join reversed", File{Relations: ab, Joins: []Join{edge("B", "A", 0.1), edge("A", "B", 0.2)}}, ErrDuplicateJoin},
		{"duplicate join after another",
			File{Relations: abc, Joins: []Join{edge("C", "B", 0.1), edge("A", "C", 0.5), edge("B", "C", 0.2)}}, ErrDuplicateJoin},
		{"bad selectivity before duplicate",
			File{Relations: ab, Joins: []Join{edge("A", "B", 0.1), edge("B", "A", 7)}}, ErrBadSelectivity},
		{"64 relations, duplicate on the last and first",
			File{Relations: wide, Joins: []Join{edge("w63", "w00", 0.1), edge("w00", "w63", 0.1)}}, ErrDuplicateJoin},
		{"64 relations, distinct pairs",
			File{Relations: wide, Joins: []Join{edge("w63", "w00", 0.1), edge("w63", "w01", 0.1), edge("w62", "w00", 0.1)}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.file.Relations) > scanLimit {
				t.Fatalf("case has %d relations; the scan path takes at most %d", len(tc.file.Relations), scanLimit)
			}
			padded := tc.file
			padded.Relations = append(append([]Relation(nil), tc.file.Relations...), make([]Relation, scanLimit+1)...)
			for i := range padded.Relations[len(tc.file.Relations):] {
				padded.Relations[len(tc.file.Relations)+i] = rel(fmt.Sprintf("pad%02d", i))
			}
			scan, indexed := tc.file.Validate(), padded.Validate()
			if !errors.Is(scan, tc.want) || (tc.want == nil) != (scan == nil) {
				t.Fatalf("scan path: %v, want %v", scan, tc.want)
			}
			if fmt.Sprint(scan) != fmt.Sprint(indexed) {
				t.Fatalf("scan path says %v, indexed path says %v", scan, indexed)
			}
		})
	}
	if err := (&File{}).Validate(); err != ErrNoRelations {
		t.Fatalf("empty file: %v", err)
	}
}

// TestValidateAllocs: a valid spec of up to 64 relations validates without
// allocating.
func TestValidateAllocs(t *testing.T) {
	f := Example()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocated %v times per call", allocs)
	}
}
