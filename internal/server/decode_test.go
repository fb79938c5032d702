package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/spec"
	"blitzsplit/internal/workload"
)

// renderBody writes a request body the way the benchmark's clients do:
// relations R0…Rn−1 with shortest-form floats, the join graph's edges, the
// cost model, and tail (extra top-level fields, starting with a comma).
func renderBody(cards []float64, g *joingraph.Graph, model, tail string) []byte {
	b := []byte(`{"relations":[`)
	for i, c := range cards {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":"R%d","cardinality":`, i)
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"joins":[`...)
	if g != nil {
		for i, e := range g.Edges() {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"a":"R%d","b":"R%d","selectivity":`, e.A, e.B)
			b = strconv.AppendFloat(b, e.Selectivity, 'g', -1, 64)
			b = append(b, '}')
		}
	}
	b = append(b, `],"model":"`...)
	b = append(b, model...)
	return append(append(append(b, '"'), tail...), '}')
}

// hotBody is an opt-hot-shaped body: n relations, a random connected graph
// with extra edges beyond a spanning tree, and a paper cost model.
func hotBody(rng *rand.Rand, n, extra int) []byte {
	c := workload.RandomCase(rng, n, extra, 1e5)
	return renderBody(c.Cards, c.Graph, c.Model.Name(), "")
}

// coldBodies are opt-cold's five n = 13 topologies under the paper's models.
func coldBodies() [][]byte {
	const n = 13
	rng := rand.New(rand.NewSource(13))
	models := cost.PaperModels()
	var bodies [][]byte
	for i, pairs := range [][]joingraph.Pair{
		joingraph.AppendixChainEdges(n),
		joingraph.AppendixCyclePlus3Edges(n),
		joingraph.StarEdges(n, n-1),
		joingraph.CliqueEdges(n),
		joingraph.RandomConnectedEdgesRand(n, 3, rng),
	} {
		cards := make([]float64, n)
		for j := range cards {
			cards[j] = math.Exp(rng.Float64() * math.Log(1e5))
		}
		bodies = append(bodies, renderBody(cards, joingraph.Build(pairs, cards), models[i%3].Name(), ""))
	}
	return bodies
}

// decodeBoth decodes body with decodePlain and, when the fast path accepts,
// with json.Unmarshal into a zero value, and fails unless the two agree bit
// for bit: reflect.DeepEqual (which separates nil from empty slices) plus
// the bits of every float (which separates −0 from 0). A body the fast path
// refuses must leave the request at its zero value. execute picks the
// target type. It reports whether the fast path accepted.
func decodeBoth(t testing.TB, body []byte, execute bool) bool {
	t.Helper()
	var fast, want ExecuteRequest
	var fv, wv any = &fast.OptimizeRequest, &want.OptimizeRequest
	if execute {
		fv, wv = &fast, &want
	}
	if !decodePlain(body, fv) {
		if !reflect.DeepEqual(fast, ExecuteRequest{}) {
			t.Fatalf("fallback left a non-zero request %+v for %q", fast, body)
		}
		return false
	}
	if err := json.Unmarshal(body, wv); err != nil {
		t.Fatalf("fast path accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast path and json.Unmarshal disagree on %q:\nfast %+v\njson %+v", body, fast, want)
	}
	for i, r := range want.Relations {
		if math.Float64bits(r.Cardinality) != math.Float64bits(fast.Relations[i].Cardinality) {
			t.Fatalf("relation %d cardinality bits differ on %q", i, body)
		}
	}
	for i, j := range want.Joins {
		if math.Float64bits(j.Selectivity) != math.Float64bits(fast.Joins[i].Selectivity) {
			t.Fatalf("join %d selectivity bits differ on %q", i, body)
		}
	}
	return true
}

// randomRequest draws an execute request over every field. Names avoid the
// characters json.Marshal escapes (<, >, &, U+2028, U+2029, controls), so the
// marshalled body is plain.
func randomRequest(rng *rand.Rand) ExecuteRequest {
	runes := []rune("abcxyzR019_-. Ωé名前")
	name := func() string {
		var b strings.Builder
		for k := 1 + rng.Intn(6); k > 0; k-- {
			b.WriteRune(runes[rng.Intn(len(runes))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(1e6))
		case 3:
			return math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		case 4:
			return -rng.ExpFloat64()
		}
		return rng.Float64()
	}
	integer := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt64
		case 1:
			return math.MinInt64
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	var req ExecuteRequest
	req.Relations = make([]spec.Relation, rng.Intn(16))
	for i := range req.Relations {
		req.Relations[i] = spec.Relation{Name: name(), Cardinality: float(), Width: int(integer())}
	}
	if rng.Intn(4) > 0 {
		req.Joins = make([]spec.Join, rng.Intn(20))
		for i := range req.Joins {
			req.Joins[i] = spec.Join{A: name(), B: name(), Selectivity: float()}
			if len(req.Relations) > 0 && rng.Intn(2) == 0 {
				req.Joins[i].A = req.Relations[rng.Intn(len(req.Relations))].Name
			}
		}
	}
	req.Model = []string{"", "naive", "sortmerge", "dnl", "min(naive,dnl)"}[rng.Intn(5)]
	req.LeftDeep = rng.Intn(2) == 0
	req.TimeoutMS = integer()
	req.IncludePlan = rng.Intn(2) == 0
	req.Seed = integer()
	req.Algorithm = []string{"", "hash", "sortmerge", "nestedloops"}[rng.Intn(4)]
	req.Adaptive = rng.Intn(2) == 0
	req.MaxRows = int(integer())
	req.CollectOps = rng.Intn(2) == 0
	return req
}

// Plain bodies marshalled from random requests take the fast path and decode
// exactly as encoding/json decodes them.
func TestDecodePlainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		req := randomRequest(rng)
		for _, execute := range []bool{false, true} {
			var v any = req.OptimizeRequest
			if execute {
				v = req
			}
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !decodeBoth(t, body, execute) {
				t.Fatalf("plain body fell back (execute=%v): %s", execute, body)
			}
		}
	}
	for _, body := range append(coldBodies(), hotBody(rng, 14, 7)) {
		if !decodeBoth(t, body, false) {
			t.Fatalf("benchmark-shaped body fell back: %s", body)
		}
	}
}

// decodeCases are edge cases of the plain form: whether decodePlain accepts
// each one as an optimize request, and as an execute request.
var decodeCases = []struct {
	name          string
	body          string
	fast, fastExe bool
}{
	{"example", exampleBody(), true, true},
	{"whitespace", " \t\n{ \"relations\" : [ { \"name\" : \"A\" , \"cardinality\" : 1 } ] , \"joins\" : [ ] }\r\n ", true, true},
	{"empty arrays", `{"relations":[],"joins":[]}`, true, true},
	{"empty object", `{}`, true, true},
	{"empty elements", `{"relations":[{}],"joins":[{}]}`, true, true},
	{"negative zero", `{"relations":[{"name":"A","cardinality":-0,"width":-0}],"joins":[{"a":"A","b":"A","selectivity":-0.0e0}]}`, true, true},
	{"exponents", `{"relations":[{"name":"A","cardinality":1E+2},{"name":"B","cardinality":5e-324}]}`, true, true},
	{"long exponent", `{"relations":[{"name":"A","cardinality":0.` + strings.Repeat("0", 99) + `1e100}]}`, true, true},
	{"utf8 name", `{"relations":[{"name":"Ωé名前","cardinality":3}]}`, true, true},
	{"options", `{"relations":[{"name":"A","cardinality":3}],"model":"dnl","left_deep":true,"timeout_ms":25,"include_plan":false}`, true, true},
	{"execute options", `{"relations":[{"name":"A","cardinality":3}],"seed":-7,"algorithm":"hash","adaptive":true,"max_rows":100,"collect_ops":false}`, false, true},
	{"escape", `{"relations":[{"name":"A\u0042","cardinality":3}]}`, false, false},
	{"escaped quote", `{"relations":[{"name":"A\"","cardinality":3}]}`, false, false},
	{"key case", `{"Relations":[{"name":"A","cardinality":3}]}`, false, false},
	{"inner key case", `{"relations":[{"Name":"A","cardinality":3}]}`, false, false},
	{"unknown key", `{"relations":[{"name":"A","cardinality":3}],"extra":[1,{"x":null}]}`, false, false},
	{"duplicate key", `{"model":"naive","relations":[{"name":"A","cardinality":3}],"model":"dnl"}`, false, false},
	{"duplicate inner key", `{"relations":[{"name":"A","name":"B","cardinality":3}]}`, false, false},
	{"duplicate array", `{"relations":[{"name":"A","cardinality":3}],"relations":[{"cardinality":4}]}`, false, false},
	{"null array", `{"relations":[{"name":"A","cardinality":3}],"joins":null}`, false, false},
	{"null value", `{"relations":[{"name":null,"cardinality":3}]}`, false, false},
	{"null element", `{"relations":[null]}`, false, false},
	{"null body", `null`, false, false},
	{"float overflow", `{"relations":[{"name":"A","cardinality":1e400}]}`, false, false},
	{"huge integer", `{"relations":[{"name":"A","cardinality":3}],"timeout_ms":123456789012345678901234567890}`, false, false},
	{"fractional integer", `{"relations":[{"name":"A","cardinality":3,"width":1.5}]}`, false, false},
	{"exponent integer", `{"relations":[{"name":"A","cardinality":3}],"timeout_ms":1e3}`, false, false},
	{"huge seed", `{"relations":[{"name":"A","cardinality":3}],"seed":9223372036854775808}`, false, false},
	{"trailing bytes", `{"relations":[{"name":"A","cardinality":3}]}x`, false, false},
	{"second value", `{"relations":[]} {}`, false, false},
	{"trailing comma", `{"relations":[{"name":"A","cardinality":3},]}`, false, false},
	{"leading zero", `{"relations":[{"name":"A","cardinality":01}]}`, false, false},
	{"bare dot", `{"relations":[{"name":"A","cardinality":1.}]}`, false, false},
	{"leading dot", `{"relations":[{"name":"A","cardinality":.5}]}`, false, false},
	{"plus sign", `{"relations":[{"name":"A","cardinality":+1}]}`, false, false},
	{"bare exponent", `{"relations":[{"name":"A","cardinality":1e}]}`, false, false},
	{"hex float", `{"relations":[{"name":"A","cardinality":0x1p3}]}`, false, false},
	{"string for number", `{"relations":[{"name":"A","cardinality":"3"}]}`, false, false},
	{"number for bool", `{"relations":[],"left_deep":1}`, false, false},
	{"bad literal", `{"relations":[],"left_deep":truth}`, false, false},
	{"control byte", "{\"relations\":[{\"name\":\"A\tB\",\"cardinality\":3}]}", false, false},
	{"form feed", "{\f\"relations\":[]}", false, false},
	{"invalid utf8", "{\"relations\":[{\"name\":\"A\xff\",\"cardinality\":3}]}", false, false},
	{"array body", `[]`, false, false},
	{"empty body", ``, false, false},
	{"unterminated", `{"relations":[{"name":"A","cardinality":3}`, false, false},
	{"unterminated string", `{"relations":[{"name":"A`, false, false},
}

// exampleBody is spec.Example as a sort-merge optimize request.
func exampleBody() string {
	b, err := json.Marshal(OptimizeRequest{File: *spec.Example(), Model: "sortmerge"})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Each edge case takes the path its row names, and readJSON answers it
// exactly as encoding/json does: the same request on success, the same
// status and error text on failure.
func TestDecodePlainEdgeCases(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			for _, execute := range []bool{false, true} {
				fast := decodeBoth(t, []byte(c.body), execute)
				if want := c.fast && !execute || c.fastExe && execute; fast != want {
					t.Errorf("execute=%v: fast path %v, want %v", execute, fast, want)
				}
				var got, want ExecuteRequest
				var gv, wv any = &got.OptimizeRequest, &want.OptimizeRequest
				if execute {
					gv, wv = &got, &want
				}
				code, err := readJSON(httptest.NewRequest("POST", "/", strings.NewReader(c.body)), gv)
				werr := json.Unmarshal([]byte(c.body), wv)
				if (err == nil) != (werr == nil) || err != nil && (code != 400 || err.Error() != "invalid JSON: "+werr.Error()) {
					t.Fatalf("execute=%v: readJSON = %d %v, json.Unmarshal = %v", execute, code, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("execute=%v: readJSON decoded %+v, json.Unmarshal %+v", execute, got, want)
				}
			}
		})
	}
}

// The fast path allocates the body's string copy and the two slices; the
// request itself is the caller's. encoding/json takes 74 allocations for
// the same body, one per string and one per slice growth among them.
func TestDecodeRequestAllocs(t *testing.T) {
	body := hotBody(rand.New(rand.NewSource(1)), 14, 7)
	var req OptimizeRequest
	if !decodePlain(body, &req) || len(req.Relations) != 14 || len(req.Joins) != 20 || req.Model == "" {
		t.Fatalf("body not decoded as a 14-relation, 20-join plain request: %s", body)
	}
	allocs := testing.AllocsPerRun(100, func() {
		req = OptimizeRequest{}
		decodePlain(body, &req)
	})
	t.Logf("fast path: %.0f allocs/op on a %d-byte body", allocs, len(body))
	if allocs > 3 {
		t.Fatalf("fast path allocates %.0f times per decode, want at most 3", allocs)
	}
}

// BenchmarkDecodeRequest compares the fast path with encoding/json on
// opt-hot-shaped bodies (8–14 relations, 0–3 edges beyond a spanning tree).
// late-fallback is readJSON's decode of a body that leaves the plain form
// only at its last member (a null): the fast path's refused pass plus
// json.Unmarshal, against encoding-json alone.
func BenchmarkDecodeRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	plain := make([][]byte, 64)
	late := make([][]byte, len(plain))
	size := 0
	for k := range plain {
		c := workload.RandomCase(rng, 8+k%7, (k/7)%4, 1e5)
		plain[k] = renderBody(c.Cards, c.Graph, c.Model.Name(), "")
		late[k] = renderBody(c.Cards, c.Graph, c.Model.Name(), `,"left_deep":null`)
		size += len(plain[k])
	}
	run := func(name string, bodies [][]byte, decode func([]byte, *OptimizeRequest) bool) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size / len(bodies)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req OptimizeRequest
				if !decode(bodies[i%len(bodies)], &req) {
					b.Fatal("body not decoded")
				}
			}
		})
	}
	unmarshal := func(body []byte, req *OptimizeRequest) bool { return json.Unmarshal(body, req) == nil }
	run("plain", plain, func(body []byte, req *OptimizeRequest) bool { return decodePlain(body, req) })
	run("encoding-json", plain, unmarshal)
	run("late-fallback", late, func(body []byte, req *OptimizeRequest) bool {
		return !decodePlain(body, req) && unmarshal(body, req)
	})
}

// FuzzDecodeRequest is the fast path's differential check: whenever
// decodePlain accepts a body, json.Unmarshal into a zero value must accept
// it too and decode it identically, float bits included; when it refuses,
// the request must be left zero. The seeds are the edge-case table above and
// the corpus under testdata/fuzz/FuzzDecodeRequest, which holds the
// benchmark's body shapes.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeBoth(t, body, false)
		decodeBoth(t, body, true)
	})
}
