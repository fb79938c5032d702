package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blitzsplit"
	"blitzsplit/internal/faultinject"
)

// chainBody returns the JSON for an n-relation chain query. Distinct
// cardinalities keep different test queries on distinct canonical
// fingerprints, so tests never coalesce by accident.
func chainBody(n int, card float64) string { return chainBodySel(n, card, 0.001) }

// chainBodySel is chainBody with every join at the given selectivity.
func chainBodySel(n int, card, sel float64) string {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"R%d","cardinality":%g}`, i, card)
	}
	b.WriteString(`],"joins":[`)
	for i := 0; i+1 < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a":"R%d","b":"R%d","selectivity":%g}`, i, i+1, sel)
	}
	b.WriteString(`]}`)
	return b.String()
}

// reversedChainBody is chainBody(n, card) with its relations and joins listed
// back to front and each join's sides swapped: the same query under another
// relation numbering.
func reversedChainBody(n int, card float64) string {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"R%d","cardinality":%g}`, i, card)
	}
	b.WriteString(`],"joins":[`)
	for i := n - 2; i >= 0; i-- {
		if i < n-2 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a":"R%d","b":"R%d","selectivity":0.001}`, i+1, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// interleavedChainBody is chainBody(n, card) with its even-numbered
// relations listed first, then the odd ones: the same query under a relation
// numbering that, unlike reversedChainBody's, is no automorphism of the
// chain, so only canonicalization can give the two one identity.
func interleavedChainBody(n int, card float64) string {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	sep := ""
	for _, first := range []int{0, 1} {
		for i := first; i < n; i += 2 {
			fmt.Fprintf(&b, `%s{"name":"R%d","cardinality":%g}`, sep, i, card)
			sep = ","
		}
	}
	body := chainBody(n, card)
	b.WriteString(body[strings.Index(body, `],"joins"`):])
	return b.String()
}

// withOpts splices extra top-level JSON fields into a chainBody document.
func withOpts(body, extra string) string {
	return body[:len(body)-1] + "," + extra + "}"
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postOptimize(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	return postPath(t, base, "/v1/optimize", body)
}

func postPath(t *testing.T, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, b
}

func decodeResponse(t *testing.T, b []byte) OptimizeResponse {
	t.Helper()
	var r OptimizeResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("invalid response JSON: %v\n%s", err, b)
	}
	return r
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLargeChainBoundedAlloc: under the default Config an n = 26 chain's
// exhaustive table (2 GiB) exceeds the per-request memory budget, so the
// deadline ladder answers from its IDP or greedy rung. The IDP rung's tables
// hold only the subsets of at most K units, so the request allocates
// megabytes, not a dense 2^26-entry table.
func TestLargeChainBoundedAlloc(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, b := postOptimize(t, ts.URL, chainBody(26, 1000))
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("mode %s, %.1f MiB allocated", decodeResponse(t, b).Mode, float64(alloc)/(1<<20))
	if alloc > 64<<20 {
		t.Fatalf("allocated %.1f MiB, want at most 64 MiB", float64(alloc)/(1<<20))
	}
}

func TestOptimizeBasic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, b := postOptimize(t, ts.URL, chainBody(5, 1000))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	r := decodeResponse(t, b)
	if r.Mode != blitzsplit.ModeExhaustive || r.Degraded {
		t.Errorf("mode = %q degraded = %v, want exhaustive", r.Mode, r.Degraded)
	}
	if r.Cached || r.Coalesced {
		t.Errorf("cold request reported cached=%v coalesced=%v", r.Cached, r.Coalesced)
	}
	if r.Expression == "" || r.Cost <= 0 || r.Cardinality <= 0 {
		t.Errorf("degenerate response: %+v", r)
	}
	if r.Plan != nil {
		t.Error("plan included without include_plan")
	}

	// Same query again: a plan-cache hit, bit-identical.
	code, b = postOptimize(t, ts.URL, chainBody(5, 1000))
	if code != http.StatusOK {
		t.Fatalf("second status = %d: %s", code, b)
	}
	r2 := decodeResponse(t, b)
	if !r2.Cached {
		t.Error("second identical request must be a cache hit")
	}
	if r2.Cost != r.Cost || r2.Cardinality != r.Cardinality ||
		r2.Expression != r.Expression || r2.Counters != r.Counters {
		t.Errorf("cache hit not bit-identical:\ncold %+v\nhit  %+v", r, r2)
	}

	// include_plan returns the tree.
	code, b = postOptimize(t, ts.URL, withOpts(chainBody(5, 1000), `"include_plan":true`))
	if code != http.StatusOK {
		t.Fatalf("include_plan status = %d: %s", code, b)
	}
	if r3 := decodeResponse(t, b); r3.Plan == nil {
		t.Error("include_plan did not return a plan")
	}
	if got := s.met.requests(http.StatusOK).Value(); got != 3 {
		t.Errorf("requests{200} = %d, want 3", got)
	}
	if got := s.met.optimizations.Value(); got != 3 {
		t.Errorf("optimizations = %d, want 3 (cache hits still pass the leader path)", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRelations: 4})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{not json`, http.StatusBadRequest},
		{"unknown relation in join",
			`{"relations":[{"name":"A","cardinality":10}],"joins":[{"a":"A","b":"Z","selectivity":0.5}]}`,
			http.StatusBadRequest},
		{"too many relations", chainBody(5, 1000), http.StatusUnprocessableEntity},
		{"negative timeout", withOpts(chainBody(2, 10), `"timeout_ms":-5`), http.StatusBadRequest},
		{"unknown model", withOpts(chainBody(2, 10), `"model":"bogus"`), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, b := postOptimize(t, ts.URL, c.body)
			if code != c.want {
				t.Fatalf("status = %d, want %d: %s", code, c.want, b)
			}
			var e errorResponse
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Errorf("error body not JSON with error field: %s", b)
			}
		})
	}

	// Method and body-size limits.
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
	// Valid JSON, padded past the bound with leading whitespace.
	_, def := newTestServer(t, Config{})
	code, b := postOptimize(t, def.URL, strings.Repeat(" ", DefaultMaxBody)+chainBody(2, 10))
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413: %s", code, b)
	}
}

// A well-formed query whose every plan overflows the float32 cost limit is
// unanswerable as posed: 422, not 500.
func TestNoPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"relations":[{"name":"A","cardinality":1e30},{"name":"B","cardinality":1e30}],
	          "joins":[{"a":"A","b":"B","selectivity":1}]}`
	code, b := postOptimize(t, ts.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", code, b)
	}
}

// overflowBody returns n relations of cardinality 1e300 and no joins: every
// product overflows, so the greedy seed's candidates all compare equal to
// +Inf.
func overflowBody(n int, extra string) string {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"R%d","cardinality":1e300}`, i)
	}
	b.WriteString("]" + extra + "}")
	return b.String()
}

// TestOverflowingSeedIs422: a query whose every plan overflows is answered
// 422 with a JSON error every time. The greedy seed of the ladder's first
// rung must not panic on it (which would answer 500 and, after
// DefaultQuarantineThreshold requests, quarantine a valid shape), and a
// degraded rung's +Inf cost must not reach the encoder (which refuses it).
func TestOverflowingSeedIs422(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodies := []string{overflowBody(2, ""), overflowBody(3, "")}
	for i := 0; i < blitzsplit.DefaultQuarantineThreshold+1; i++ {
		bodies = append(bodies, bodies[0])
	}
	for _, n := range []int{20, 24, 30} {
		bodies = append(bodies, overflowBody(n, `,"timeout_ms":1`))
	}
	for _, body := range bodies {
		code, b := postOptimize(t, ts.URL, body)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422: %s\nbody: %.80s…", code, b, body)
		}
		var e errorResponse
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Fatalf("error body not JSON with error field: %q", b)
		}
	}
	if got := s.met.panics.Value(); got != 0 {
		t.Errorf("blitzd_panics_total = %d, want 0", got)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses is answered 500
// with a JSON error body, never a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	if code := s.writeJSON(rec, http.StatusOK, OptimizeResponse{Cost: math.Inf(1)}); code != http.StatusInternalServerError {
		t.Errorf("writeJSON returned %d, want 500", code)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("body %q is not a JSON encode error", rec.Body.Bytes())
	}
}

// TestCoalescingExact is the acceptance criterion for coalescing: K
// concurrent identical queries perform exactly one optimization; telemetry
// reports 1 optimization and K−1 coalesced waits; and all K responses are
// bit-identical to a cold run of the same request.
//
// The leader is held deterministically at the first degradation-ladder rung
// by a faultinject hook, the K−1 followers are observed coalescing via the
// telemetry counter, and only then is the leader released.
func TestCoalescingExact(t *testing.T) {
	const K = 8
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	body := chainBody(10, 1000)

	entered := make(chan struct{})
	gate := make(chan struct{})
	var enterOnce, gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	// Only the leader runs the ladder — followers wait for it and are then
	// served from the plan cache, which returns before any rung fires — so
	// the hook blocks exactly one request.
	faultinject.Set(faultinject.FacadeRung, func() {
		enterOnce.Do(func() { close(entered); <-gate })
	})
	defer faultinject.Reset()
	defer release()

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, K)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b}
	}

	go post() // leader
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the ladder")
	}
	for i := 0; i < K-1; i++ {
		go post()
	}
	waitFor(t, 10*time.Second,
		func() bool { return s.met.coalesced.Value() == K-1 },
		"all followers to coalesce")
	release()

	var leaders, followers int
	var got []OptimizeResponse
	for i := 0; i < K; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("status = %d: %s", r.code, r.body)
		}
		resp := decodeResponse(t, r.body)
		got = append(got, resp)
		if resp.Coalesced {
			followers++
			if !resp.Cached {
				t.Error("coalesced follower must be served from the plan cache")
			}
		} else {
			leaders++
		}
	}
	if leaders != 1 || followers != K-1 {
		t.Fatalf("leaders = %d followers = %d, want 1 and %d", leaders, followers, K-1)
	}
	if got := s.met.optimizations.Value(); got != 1 {
		t.Errorf("optimizations = %d, want exactly 1", got)
	}
	if got := s.met.coalesced.Value(); got != K-1 {
		t.Errorf("coalesced = %d, want exactly %d", got, K-1)
	}
	if got := s.met.requests(http.StatusOK).Value(); got != K {
		t.Errorf("requests{200} = %d, want %d", got, K)
	}

	// Bit-identical to a cold run: a fresh engine, same request, no hook.
	faultinject.Reset()
	_, cold := newTestServer(t, Config{})
	code, b := postOptimize(t, cold.URL, body)
	if code != http.StatusOK {
		t.Fatalf("cold run status = %d: %s", code, b)
	}
	want := decodeResponse(t, b)
	for i, r := range got {
		if r.Cost != want.Cost || r.Cardinality != want.Cardinality ||
			r.Expression != want.Expression || r.Counters != want.Counters {
			t.Errorf("response %d not bit-identical to cold run:\ngot  %+v\nwant %+v", i, r, want)
		}
	}
}

// TestCoalescingOnPlanKey: requests coalesce on the engine's plan-cache key,
// so followers that list the leader's relations in another order wait for
// the leader instead of optimizing: 1 optimization and K−1 coalesced waits,
// each follower served from the leader's cache entry under the leader's
// fingerprint. The leader is held at the first ladder rung as in
// TestCoalescingExact.
func TestCoalescingOnPlanKey(t *testing.T) {
	const K = 6
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	leader := chainBody(10, 1000)
	followers := []string{reversedChainBody(10, 1000), interleavedChainBody(10, 1000)}

	entered := make(chan struct{})
	gate := make(chan struct{})
	var enterOnce, gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	faultinject.Set(faultinject.FacadeRung, func() {
		enterOnce.Do(func() { close(entered); <-gate })
	})
	defer faultinject.Reset()
	defer release()

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, K)
	post := func(body string) {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b}
	}
	go post(leader)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the ladder")
	}
	for i := 0; i < K-1; i++ {
		go post(followers[i%len(followers)])
	}
	waitFor(t, 10*time.Second,
		func() bool { return s.met.coalesced.Value() == K-1 },
		"all followers to coalesce")
	release()

	fps := map[string]bool{}
	var coalesced int
	for i := 0; i < K; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("status = %d: %s", r.code, r.body)
		}
		resp := decodeResponse(t, r.body)
		fps[resp.Fingerprint] = true
		if resp.Coalesced {
			coalesced++
			if !resp.Cached {
				t.Error("coalesced follower must be served from the plan cache")
			}
		}
	}
	if coalesced != K-1 {
		t.Errorf("coalesced responses = %d, want %d", coalesced, K-1)
	}
	if len(fps) != 1 {
		t.Errorf("fingerprints = %v, want one", fps)
	}
	if got := s.met.optimizations.Value(); got != 1 {
		t.Errorf("optimizations = %d, want exactly 1", got)
	}
	if got := s.met.coalesced.Value(); got != K-1 {
		t.Errorf("coalesced = %d, want exactly %d", got, K-1)
	}
}

// TestRelabeledFingerprintMatchesPlanKey: the response fingerprint is the
// one inside the engine's plan-cache key, so a query and a relabeling of it
// carry the same fingerprint, in the body and the header, and the second is
// served from the first's cache entry.
func TestRelabeledFingerprintMatchesPlanKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	want := hex.EncodeToString(shapeFP(t, s, 5, 1000))
	for i, body := range []string{chainBody(5, 1000), interleavedChainBody(5, 1000)} {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
		r := decodeResponse(t, raw)
		if r.Fingerprint != want || resp.Header.Get(HeaderFingerprint) != want {
			t.Errorf("request %d: fingerprint body %q header %q, want PlanKey's %q",
				i, r.Fingerprint, resp.Header.Get(HeaderFingerprint), want)
		}
		if r.Cached != (i == 1) {
			t.Errorf("request %d: cached = %v, want %v", i, r.Cached, i == 1)
		}
	}
}

// With the only slot held and a short admission wait, the server sheds.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, AdmissionWait: 30 * time.Millisecond})
	s.inflight <- struct{}{} // occupy the only slot
	defer func() { <-s.inflight }()

	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(chainBody(3, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if got := s.met.shed.Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

// Under overload the server degrades before it sheds: a request admitted at
// high occupancy runs with a shrunken deadline, and the deadline ladder
// answers with a cheaper rung instead of an error.
func TestOverloadDegrades(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, AdmissionWait: 10 * time.Second})
	s.inflight <- struct{}{} // saturate: the next request samples 100% occupancy
	go func() {
		time.Sleep(250 * time.Millisecond)
		<-s.inflight // free the slot so the request admits after sampling
	}()

	// A 20-relation chain at selectivity 0.01 cannot finish exhaustively
	// inside the shrunken deadline (1600 ms / 8 = 200 ms at full occupancy):
	// even greedy-seeded, its fill takes about 2.3 s on a 2-vCPU Xeon. So
	// the ladder must land on a cheaper rung — and still answer 200.
	code, b := postOptimize(t, ts.URL, withOpts(chainBodySel(20, 1000, 0.01), `"timeout_ms":1600`))
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degrade, not shed): %s", code, b)
	}
	r := decodeResponse(t, b)
	if !r.Degraded || r.Mode == blitzsplit.ModeExhaustive {
		t.Fatalf("mode = %q degraded = %v, want a degraded rung", r.Mode, r.Degraded)
	}
	if got := s.met.degraded(r.Mode).Value(); got != 1 {
		t.Errorf("degraded{rung=%q} = %d, want 1", r.Mode, got)
	}
	if got := s.met.shed.Value(); got != 0 {
		t.Errorf("shed = %d, want 0 — degradation must come before shedding", got)
	}
}

func TestDrainRefusal(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", got)
	}
	s.BeginDrain()
	s.BeginDrain() // idempotent
	if !s.Draining() {
		t.Fatal("Draining() must report true")
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (process is still live)", got)
	}
	code, b := postOptimize(t, ts.URL, chainBody(3, 1000))
	if code != http.StatusServiceUnavailable {
		t.Errorf("optimize during drain = %d, want 503: %s", code, b)
	}
	if got := s.met.shed.Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code, b := postOptimize(t, ts.URL, chainBody(4, 1000)); code != http.StatusOK {
		t.Fatalf("optimize status = %d: %s", code, b)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		`blitzd_requests_total{code="200"} 1`,
		"blitzd_optimizations_total 1",
		"# TYPE blitzd_request_seconds histogram",
		"blitzd_inflight 0",
		"blitzd_plancache_misses_total 1",
		"blitzd_arena_live_tables 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	vb, _ := io.ReadAll(vresp.Body)
	var vars map[string]any
	if err := json.Unmarshal(vb, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, vb)
	}
	if got := vars["blitzd_inflight_limit"].(float64); got != float64(cap(s.inflight)) {
		t.Errorf("blitzd_inflight_limit = %v, want %d", got, cap(s.inflight))
	}
}

func TestOverloadDivisor(t *testing.T) {
	cases := []struct {
		used, capacity int
		want           time.Duration
	}{
		{0, 4, 1}, {1, 4, 1}, {2, 4, 2}, {3, 4, 4}, {4, 4, 8},
		{9, 10, 8}, {8, 10, 4}, {7, 10, 2}, {5, 10, 2}, {4, 10, 1},
		{1, 1, 8}, {0, 1, 1},
	}
	for _, c := range cases {
		if got := overloadDivisor(c.used, c.capacity); got != c.want {
			t.Errorf("overloadDivisor(%d, %d) = %d, want %d", c.used, c.capacity, got, c.want)
		}
	}
}

// effectiveTimeout takes the server default, a client deadline below the
// cap, or the cap itself, halved per overload step and floored at 1 ms. A
// requested deadline at or above MaxTimeout gets MaxTimeout however large it
// is: converting it to a Duration first would overflow into the floor. The
// cap is the server's configured MaxTimeout, checked at the default and at a
// non-default 10 s.
func TestEffectiveTimeout(t *testing.T) {
	type row struct {
		ms   int64
		used int
		want time.Duration
	}
	for _, c := range []struct {
		cfg  Config
		rows []row
	}{
		{Config{MaxInFlight: 4}, []row{
			{0, 0, DefaultRequestTimeout},
			{1, 0, time.Millisecond},
			{500, 0, 500 * time.Millisecond},
			{800, 2, 400 * time.Millisecond},
			{4, 4, time.Millisecond},
			{30000, 0, DefaultMaxTimeout},
			{30001, 0, DefaultMaxTimeout},
			{60000, 2, DefaultMaxTimeout / 2},
			{9223372036854, 0, DefaultMaxTimeout},
			{9223372036855, 0, DefaultMaxTimeout},
			{1 << 62, 0, DefaultMaxTimeout},
			{math.MaxInt64, 0, DefaultMaxTimeout},
		}},
		{Config{MaxInFlight: 4, MaxTimeout: 10 * time.Second}, []row{
			{9999, 0, 9999 * time.Millisecond},
			{10000, 0, 10 * time.Second},
			{30000, 0, 10 * time.Second},
			{60000, 0, 10 * time.Second},
			{60000, 2, 5 * time.Second},
			{9223372036855, 0, 10 * time.Second},
			{math.MaxInt64, 0, 10 * time.Second},
		}},
	} {
		s := New(c.cfg)
		for _, r := range c.rows {
			if got := s.effectiveTimeout(&OptimizeRequest{TimeoutMS: r.ms}, r.used); got != r.want {
				t.Errorf("MaxTimeout %v, timeout_ms %d at %d in flight: deadline %v, want %v",
					s.cfg.MaxTimeout, r.ms, r.used, got, r.want)
			}
		}
	}
}

// TestServerStressCoalesce hammers one server from 8 goroutines with a small
// set of query shapes and asserts the global accounting identity: every
// request is either an optimization or a coalesced wait, nothing is shed,
// and the engine leaks no arena tables. Run under -race by `make stress`.
func TestServerStressCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	shapes := []string{
		chainBody(4, 1000), chainBody(5, 2000), chainBody(6, 3000), chainBody(7, 4000),
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
					strings.NewReader(shapes[(w+i)%len(shapes)]))
				if err != nil {
					errs <- err.Error()
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	const total = workers * per
	if got := s.met.requests(http.StatusOK).Value(); got != total {
		t.Errorf("requests{200} = %d, want %d", got, total)
	}
	if opt, co := s.met.optimizations.Value(), s.met.coalesced.Value(); opt+co != total {
		t.Errorf("optimizations (%d) + coalesced (%d) = %d, want %d", opt, co, opt+co, total)
	}
	if got := s.met.shed.Value(); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after drain, want 0", got)
	}
	if live := s.eng.Stats().Arena.Live; live != 0 {
		t.Errorf("arena leak: %d live tables", live)
	}
}

// A server pinned to the CCP enumerator serves connected queries normally
// and answers disconnected ones with 422 — such a query has no
// Cartesian-product-free plan at all, which is a property of the request,
// not a server fault. Auto never 422s: it falls back to the blitz scan and
// must agree with a default server bit for bit.
func TestEnumeratorConfig(t *testing.T) {
	disconnected := `{"relations":[{"name":"A","cardinality":100},{"name":"B","cardinality":200},` +
		`{"name":"C","cardinality":300},{"name":"D","cardinality":400}],` +
		`"joins":[{"a":"A","b":"B","selectivity":0.01},{"a":"C","b":"D","selectivity":0.02}]}`

	_, ccp := newTestServer(t, Config{Enumerator: blitzsplit.EnumeratorCCP})
	code, body := postOptimize(t, ccp.URL, chainBody(6, 1000))
	if code != http.StatusOK {
		t.Fatalf("connected query on a CCP server: %d\n%s", code, body)
	}
	code, body = postOptimize(t, ccp.URL, disconnected)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("disconnected query on a CCP server: %d, want 422\n%s", code, body)
	}

	_, auto := newTestServer(t, Config{Enumerator: blitzsplit.EnumeratorAuto})
	code, body = postOptimize(t, auto.URL, disconnected)
	if code != http.StatusOK {
		t.Fatalf("disconnected query on an Auto server: %d\n%s", code, body)
	}
	got := decodeResponse(t, body)
	_, def := newTestServer(t, Config{})
	code, body = postOptimize(t, def.URL, disconnected)
	if code != http.StatusOK {
		t.Fatalf("disconnected query on a default server: %d\n%s", code, body)
	}
	want := decodeResponse(t, body)
	if got.Cost != want.Cost || got.Expression != want.Expression {
		t.Fatalf("Auto fallback diverged from the blitz default:\n%+v\nvs\n%+v", got, want)
	}
}
