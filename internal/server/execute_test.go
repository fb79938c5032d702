package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"blitzsplit"
	"blitzsplit/internal/faultinject"
)

func postExecute(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	return postPath(t, base, "/v1/execute", body)
}

func decodeExecuteResponse(t *testing.T, b []byte) ExecuteResponse {
	t.Helper()
	var r ExecuteResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("invalid execute response JSON: %v\n%s", err, b)
	}
	return r
}

// wantRows computes the ground-truth row count for a chainBody document by
// running the same synthesis and execution through the facade directly.
func wantRows(t *testing.T, n int, card float64, seed int64) int64 {
	t.Helper()
	q := blitzsplit.NewQuery()
	names := make([]string, n)
	for i := range names {
		names[i] = "R" + string(rune('0'+i))
		q.MustAddRelation(names[i], card)
	}
	for i := 0; i+1 < n; i++ {
		q.MustJoin(names[i], names[i+1], 0.001)
	}
	db, err := q.Synthesize(seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := blitzsplit.Execute(db, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return int64(rows)
}

// TestExecuteBasic: /v1/execute answers with the actual row count — matching
// an out-of-band run of the same synthesis — under every algorithm name, and
// the exec counters account for it exactly.
func TestExecuteBasic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := withOpts(chainBody(5, 1000), `"seed":7,"collect_ops":true`)
	want := wantRows(t, 5, 1000, 7)

	code, b := postExecute(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	r := decodeExecuteResponse(t, b)
	if r.Rows != want {
		t.Errorf("rows = %d, want %d", r.Rows, want)
	}
	if r.Exec.Rows != want || r.Exec.Joins != 4 || len(r.Exec.Ops) == 0 {
		t.Errorf("exec stats = %+v", r.Exec)
	}
	if r.Expression == "" || r.Mode != blitzsplit.ModeExhaustive || r.Plan != nil {
		t.Errorf("optimize summary degenerate: %+v", r)
	}

	// Same document under each algorithm: same rows.
	for _, extra := range []string{
		`"seed":7,"algorithm":"sortmerge"`,
		`"seed":7,"algorithm":"nestedloops"`,
	} {
		code, b := postExecute(t, ts.URL, withOpts(chainBody(5, 1000), extra))
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", extra, code, b)
		}
		if got := decodeExecuteResponse(t, b).Rows; got != want {
			t.Errorf("%s: rows = %d, want %d", extra, got, want)
		}
	}

	// include_plan returns the trees.
	code, b = postExecute(t, ts.URL, withOpts(chainBody(5, 1000), `"seed":7,"include_plan":true`))
	if code != http.StatusOK {
		t.Fatalf("include_plan status = %d: %s", code, b)
	}
	if r := decodeExecuteResponse(t, b); r.Plan == nil || r.ExecutedPlan == nil {
		t.Error("include_plan did not return plan and executed_plan")
	}

	// Exact accounting: 4 executions, each returning `want` rows, no reopts.
	if got := s.met.executions.Value(); got != 4 {
		t.Errorf("executions = %d, want 4", got)
	}
	if got := s.met.execRows.Value(); got != uint64(4*want) {
		t.Errorf("exec_rows = %d, want %d", got, 4*want)
	}
	if got := s.met.execReopts.Value(); got != 0 {
		t.Errorf("exec_reopts = %d, want 0", got)
	}
	if got := s.met.requests(http.StatusOK).Value(); got != 4 {
		t.Errorf("requests{200} = %d, want 4", got)
	}
	if got := s.Engine().Stats().Executions; got != 4 {
		t.Errorf("engine Executions = %d, want 4", got)
	}
}

// TestExecuteAdaptive: the adaptive driver over the server synthesizes data
// that matches its own estimates, so execution completes with the same rows
// and no spurious replans.
func TestExecuteAdaptive(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	want := wantRows(t, 5, 1000, 3)
	code, b := postExecute(t, ts.URL, withOpts(chainBody(5, 1000), `"seed":3,"adaptive":true`))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	r := decodeExecuteResponse(t, b)
	if r.Rows != want {
		t.Errorf("adaptive rows = %d, want %d", r.Rows, want)
	}
	if got := s.met.execReopts.Value(); got != uint64(len(r.Reopts)) {
		t.Errorf("exec_reopts = %d, response had %d", got, len(r.Reopts))
	}
}

// TestExecuteTinySelectivity: a valid selectivity below 2^-63, whose key
// domain round(1/s) overflows an int64, executes over the clamped domain
// and answers 200 instead of panicking in data synthesis.
func TestExecuteTinySelectivity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, sel := range []string{"1e-19", "1e-20", "5e-324"} {
		body := `{"relations":[{"name":"A","cardinality":300},{"name":"B","cardinality":200}],` +
			`"joins":[{"a":"A","b":"B","selectivity":` + sel + `}],"seed":4}`
		code, b := postExecute(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("selectivity %s: status = %d: %s", sel, code, b)
		}
		if r := decodeExecuteResponse(t, b); r.Exec.Joins != 1 || r.Rows < 0 || r.Rows > 300*200 {
			t.Errorf("selectivity %s: degenerate execution %+v", sel, r)
		}
	}
	if got := s.HandlerPanics(); got != 0 {
		t.Errorf("handler panics = %d, want 0", got)
	}
}

// TestExecuteErrors: typed 422s for the execution guards, 400s for
// malformed execution options, 503 under drain.
func TestExecuteErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSynthRows: 3000, MaxRelations: 4})
	decodeErr := func(b []byte) errorResponse {
		var e errorResponse
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Fatalf("error body not JSON with error field: %s", b)
		}
		return e
	}

	// Synthesis admission: 4×1000 base rows over the 3000 cap.
	code, b := postExecute(t, ts.URL, chainBody(4, 1000))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("synthesis limit status = %d: %s", code, b)
	}
	if e := decodeErr(b); e.Kind != "synthesis_limit" {
		t.Errorf("kind = %q, want synthesis_limit", e.Kind)
	}

	// Row limit: selectivity 1 joins explode past max_rows.
	huge := `{"relations":[{"name":"A","cardinality":900},{"name":"B","cardinality":900}],` +
		`"joins":[{"a":"A","b":"B","selectivity":1}],"max_rows":1000}`
	code, b = postExecute(t, ts.URL, huge)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("row limit status = %d: %s", code, b)
	}
	if e := decodeErr(b); e.Kind != "row_limit" {
		t.Errorf("kind = %q, want row_limit", e.Kind)
	}
	if got := s.met.execRowLimit.Value(); got != 1 {
		t.Errorf("exec_row_limit = %d, want 1", got)
	}
	if got := s.met.executions.Value(); got != 0 {
		t.Errorf("executions after failures = %d, want 0", got)
	}

	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"bad algorithm", withOpts(chainBody(2, 100), `"algorithm":"mergesort"`), http.StatusBadRequest},
		{"negative max_rows", withOpts(chainBody(2, 100), `"max_rows":-1`), http.StatusBadRequest},
		{"bad json", `{nope`, http.StatusBadRequest},
		{"unknown model", withOpts(chainBody(2, 100), `"model":"bogus"`), http.StatusBadRequest},
		{"too many relations", chainBody(5, 100), http.StatusUnprocessableEntity},
		{"negative timeout", withOpts(chainBody(2, 100), `"timeout_ms":-1`), http.StatusBadRequest},
	} {
		code, b := postExecute(t, ts.URL, c.body)
		if code != c.want {
			t.Errorf("%s: status = %d, want %d: %s", c.name, code, c.want, b)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/execute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	s.BeginDrain()
	if code, _ := postExecute(t, ts.URL, chainBody(2, 100)); code != http.StatusServiceUnavailable {
		t.Errorf("execute during drain = %d, want 503", code)
	}
}

// TestExecuteAfterOptimizeIsCached: /v1/execute runs under the same options
// as /v1/optimize, so a document optimized first executes the plan that the
// optimize request cached.
func TestExecuteAfterOptimizeIsCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := withOpts(chainBody(5, 3000), `"model":"dnl","left_deep":true`)
	if code, b := postOptimize(t, ts.URL, body); code != http.StatusOK {
		t.Fatalf("optimize status = %d: %s", code, b)
	}
	code, b := postExecute(t, ts.URL, withOpts(body, `"seed":3`))
	if code != http.StatusOK {
		t.Fatalf("execute status = %d: %s", code, b)
	}
	if r := decodeExecuteResponse(t, b); !r.Cached {
		t.Errorf("execute after optimize missed the plan cache: %s", b)
	}
}

// TestExecutePanicIsolation extends the panic-isolation contract to the
// executor: an injected exec panic answers 500, the server keeps serving,
// and the shape strikes toward the same quarantine the optimizer uses.
func TestExecutePanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{})
	body := withOpts(chainBody(5, 2000), `"seed":1`)

	faultinject.Set(faultinject.ExecRun, func() { panic("exec-chaos") })
	for i := 0; i < blitzsplit.DefaultQuarantineThreshold; i++ {
		code, b := postExecute(t, ts.URL, body)
		if code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status = %d: %s", i+1, code, b)
		}
		if !strings.Contains(string(b), "exec-chaos") {
			t.Errorf("body %s does not surface the panic", b)
		}
	}
	// The shape is quarantined — refused before optimize or execute run —
	// even with the fault still armed.
	code, b := postExecute(t, ts.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined status = %d, want 422: %s", code, b)
	}
	if !strings.Contains(string(b), "quarantined") {
		t.Errorf("body %s does not mention quarantine", b)
	}
	faultinject.Reset()

	if got := s.met.panics.Value(); got != uint64(blitzsplit.DefaultQuarantineThreshold) {
		t.Errorf("panics = %d, want %d", got, blitzsplit.DefaultQuarantineThreshold)
	}
	if got := s.Engine().Stats().PanicsRecovered; got != uint64(blitzsplit.DefaultQuarantineThreshold) {
		t.Errorf("PanicsRecovered = %d, want %d", got, blitzsplit.DefaultQuarantineThreshold)
	}
	// Unrelated documents still execute.
	if code, b := postExecute(t, ts.URL, withOpts(chainBody(4, 500), `"seed":2`)); code != http.StatusOK {
		t.Fatalf("unrelated document after quarantine: %d %s", code, b)
	}
}

// TestExecuteMetricsExposed: the exec series appear on /metrics with exact
// values after one successful execution.
func TestExecuteMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, b := postExecute(t, ts.URL, withOpts(chainBody(4, 800), `"seed":5`))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	rows := decodeExecuteResponse(t, b).Rows

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"blitzd_executions_total 1",
		fmt.Sprintf("blitzd_exec_rows_total %d", rows),
		"blitzd_exec_reopts_total 0",
		"blitzd_exec_row_limit_total 0",
		"blitzd_plan_downranks_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}
