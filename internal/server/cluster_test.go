package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blitzsplit"
	"blitzsplit/internal/check"
	"blitzsplit/internal/cluster"
)

// testCluster is an in-process blitzd cluster: n Servers with one static
// membership, each behind a real TCP listener so forwards, fills, and
// handoffs travel over actual HTTP.
type testCluster struct {
	t     *testing.T
	peers []cluster.Node
	nodes []*testNode
}

type testNode struct {
	srv  *Server
	http *http.Server
	addr string
}

// startTestCluster binds n loopback listeners first — the membership must be
// known before any server is constructed — then starts every node.
func startTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		tc.peers = append(tc.peers, cluster.Node{
			ID:  fmt.Sprintf("n%d", i+1),
			URL: "http://" + ln.Addr().String(),
		})
	}
	tc.nodes = make([]*testNode, n)
	for i := 0; i < n; i++ {
		tc.nodes[i] = tc.serve(i, lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			if nd != nil {
				nd.http.Close()
			}
		}
	})
	return tc
}

func (tc *testCluster) serve(i int, ln net.Listener) *testNode {
	s := New(Config{NodeID: tc.peers[i].ID, Peers: tc.peers})
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return &testNode{srv: s, http: hs, addr: ln.Addr().String()}
}

func (tc *testCluster) url(i int) string { return "http://" + tc.nodes[i].addr }

// kill stops node i's HTTP server, freeing its port; the Server value (and
// its cache) is discarded like a crashed process.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	tc.nodes[i].http.Close()
	tc.nodes[i] = nil
}

// restart brings node i back on its original address with a fresh Server —
// an empty plan cache, as after a real crash without a snapshot file.
func (tc *testCluster) restart(i int) {
	tc.t.Helper()
	addr := strings.TrimPrefix(tc.peers[i].URL, "http://")
	var ln net.Listener
	var err error
	// The old listener's port can linger briefly after Close.
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tc.t.Fatalf("rebind %s: %v", addr, err)
	}
	tc.nodes[i] = tc.serve(i, ln)
}

// settle waits out every node's async cluster work (cheap fills, pushes).
func (tc *testCluster) settle() {
	for _, nd := range tc.nodes {
		if nd != nil {
			nd.srv.ClusterSettle()
		}
	}
}

// shapeFP computes the canonical fingerprint of chainBody(n, card) the same
// way the serving path does, without optimizing anything.
func shapeFP(t *testing.T, s *Server, n int, card float64) []byte {
	t.Helper()
	q := blitzsplit.NewQuery()
	for i := 0; i < n; i++ {
		if err := q.AddRelation(fmt.Sprintf("R%d", i), card); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if err := q.Join(fmt.Sprintf("R%d", i), fmt.Sprintf("R%d", i+1), 0.001); err != nil {
			t.Fatal(err)
		}
	}
	_, fp, err := s.eng.PlanKey(q, s.serveOptions(&OptimizeRequest{})...)
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	return fp
}

// TestClusterForwardAgreement is the cluster-agreement acceptance test: the
// same query posted to every node must come back bit-identical — same
// expression, cost, cardinality, and fingerprint — regardless of which node
// owns it, and each shape must cold-optimize exactly once cluster-wide.
func TestClusterForwardAgreement(t *testing.T) {
	tc := startTestCluster(t, 3)
	const shapes = 8
	for sh := 0; sh < shapes; sh++ {
		body := chainBody(5, float64(1000+sh*111))
		var answers []check.ClusterAnswer
		for i := 0; i < 3; i++ {
			code, b := postOptimize(t, tc.url(i), body)
			if code != http.StatusOK {
				t.Fatalf("shape %d node %d: status %d: %s", sh, i, code, b)
			}
			r := decodeResponse(t, b)
			answers = append(answers, check.ClusterAnswer{
				Node:        tc.peers[i].ID,
				Expression:  r.Expression,
				Cost:        r.Cost,
				Cardinality: r.Cardinality,
				Fingerprint: r.Fingerprint,
			})
		}
		if err := check.ClusterAgree(answers); err != nil {
			t.Fatalf("shape %d: %v", sh, err)
		}
	}
	tc.settle()
	// Every shape has one home shard, so across the whole cluster each shape
	// missed the cache exactly once (the owner's cold run); every other
	// serve was a hit, a forward, or a warm copy.
	var misses uint64
	for _, nd := range tc.nodes {
		misses += nd.srv.eng.Stats().Cache.Misses
	}
	if misses != shapes {
		t.Errorf("cluster-wide cache misses = %d, want exactly %d (one cold run per shape)", misses, shapes)
	}
}

// TestClusterWarmCopyServesLocally verifies the cheap fill: after a forward,
// the non-owner pulls the plan in the background and serves the next request
// for that shape from its warm local copy with no second hop.
func TestClusterWarmCopyServesLocally(t *testing.T) {
	tc := startTestCluster(t, 2)
	// Find a shape node 0 does NOT own, so its first request forwards.
	var body string
	for card := 1000.0; ; card += 77 {
		fp := shapeFP(t, tc.nodes[0].srv, 5, card)
		if owner := tc.nodes[0].srv.cluster.ring.Owner(fp); owner.ID != "n1" {
			body = chainBody(5, card)
			break
		}
	}
	if code, b := postOptimize(t, tc.url(0), body); code != http.StatusOK {
		t.Fatalf("forwarded request failed: %d: %s", code, b)
	}
	tc.settle()
	if got := tc.nodes[0].srv.cluster.fillFetched.Load(); got != 1 {
		t.Fatalf("fill_fetched = %d after forwarded request, want 1", got)
	}
	warmBefore := tc.nodes[0].srv.cluster.warmLocal.Load()
	code, b := postOptimize(t, tc.url(0), body)
	if code != http.StatusOK {
		t.Fatalf("second request: %d: %s", code, b)
	}
	if r := decodeResponse(t, b); !r.Cached {
		t.Fatalf("second request not served from cache: %+v", r)
	}
	if got := tc.nodes[0].srv.cluster.warmLocal.Load(); got != warmBefore+1 {
		t.Fatalf("warm_local = %d, want %d: second request did not serve the warm copy", got, warmBefore+1)
	}
}

// TestClusterForwardedHeaderStopsHere verifies loop prevention: a request
// already marked forwarded is served locally even by a non-owner.
func TestClusterForwardedHeaderStopsHere(t *testing.T) {
	tc := startTestCluster(t, 2)
	var body string
	for card := 1000.0; ; card += 77 {
		fp := shapeFP(t, tc.nodes[0].srv, 5, card)
		if tc.nodes[0].srv.cluster.ring.Owner(fp).ID != "n1" {
			body = chainBody(5, card)
			break
		}
	}
	req, _ := http.NewRequest(http.MethodPost, tc.url(0)+"/v1/optimize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "tester")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := tc.nodes[0].srv.cluster.received.Load(); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	if fwd := tc.nodes[0].srv.cluster.forwarded["n2"].Load(); fwd != 0 {
		t.Fatalf("marked request was forwarded on (%d hops) — loop prevention broken", fwd)
	}
}

// TestClusterOwnerDownFallback kills the owner and requires the non-owner to
// answer anyway (local optimization) and to queue a push fill toward the
// dead owner without failing the request.
func TestClusterOwnerDownFallback(t *testing.T) {
	tc := startTestCluster(t, 2)
	var body string
	for card := 1000.0; ; card += 77 {
		fp := shapeFP(t, tc.nodes[0].srv, 5, card)
		if tc.nodes[0].srv.cluster.ring.Owner(fp).ID == "n2" {
			body = chainBody(5, card)
			break
		}
	}
	tc.kill(1)
	code, b := postOptimize(t, tc.url(0), body)
	if code != http.StatusOK {
		t.Fatalf("request with dead owner: %d: %s", code, b)
	}
	r := decodeResponse(t, b)
	if r.Degraded {
		t.Fatalf("fallback degraded unexpectedly: %+v", r)
	}
	s := tc.nodes[0].srv
	if got := s.cluster.fallbackLocal.Load(); got != 1 {
		t.Fatalf("fallback_local = %d, want 1", got)
	}
	tc.settle() // push fill fails against the dead peer; must not hang or panic
	// The plan is resident locally, so the shape keeps serving warm.
	if code, b := postOptimize(t, tc.url(0), body); code != http.StatusOK || !decodeResponse(t, b).Cached {
		t.Fatalf("follow-up after fallback: code %d, body %s", code, b)
	}
}

// TestClusterPushFillReachesOwner verifies the other half of owner-failure
// repair: when the owner comes back before the push, the pushed entry lands
// in the owner's cache and serves as a hit there.
func TestClusterPushFillReachesOwner(t *testing.T) {
	tc := startTestCluster(t, 2)
	var body string
	var fp []byte
	for card := 1000.0; ; card += 77 {
		fp = shapeFP(t, tc.nodes[0].srv, 5, card)
		if tc.nodes[0].srv.cluster.ring.Owner(fp).ID == "n2" {
			body = chainBody(5, card)
			break
		}
	}
	// Make n2 unreachable from n1's forward by draining it: it answers 503
	// until the client's retries run out, forcing the local fallback, but the
	// fill endpoints still work... a drain refuses optimize only.
	tc.nodes[1].srv.BeginDrain()
	code, b := postOptimize(t, tc.url(0), body)
	if code != http.StatusOK {
		t.Fatalf("request with draining owner: %d: %s", code, b)
	}
	tc.settle()
	if got := tc.nodes[0].srv.cluster.fillPushed.Load(); got != 1 {
		t.Fatalf("fill_pushed = %d, want 1", got)
	}
	if got := tc.nodes[1].srv.cluster.fillReceived.Load(); got != 1 {
		t.Fatalf("owner fill_received = %d, want 1", got)
	}
}

// TestClusterBatch posts a mixed-owner batch and requires per-query results
// in request order, each carrying its fingerprint and agreeing exactly with
// a later single request for the same query.
func TestClusterBatch(t *testing.T) {
	tc := startTestCluster(t, 3)
	const k = 6
	var queries []json.RawMessage
	for i := 0; i < k; i++ {
		queries = append(queries, json.RawMessage(chainBody(5, float64(2000+i*131))))
	}
	batchBody, _ := json.Marshal(map[string]any{"queries": queries})
	resp, err := http.Post(tc.url(0)+"/v1/optimize/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch response: %v\n%s", err, raw)
	}
	if len(br.Results) != k {
		t.Fatalf("got %d results for %d queries", len(br.Results), k)
	}
	for i, res := range br.Results {
		if res.Result == nil {
			t.Fatalf("query %d failed: %s (code %d)", i, res.Error, res.Code)
		}
		// The individual request must agree exactly with the batch result.
		code, b := postOptimize(t, tc.url(0), string(queries[i]))
		if code != http.StatusOK {
			t.Fatalf("single query %d: %d: %s", i, code, b)
		}
		single := decodeResponse(t, b)
		if single.Expression != res.Result.Expression || single.Cost != res.Result.Cost ||
			single.Fingerprint != res.Result.Fingerprint {
			t.Fatalf("query %d: batch result %+v disagrees with single %+v", i, *res.Result, single)
		}
	}
}

// TestBatchValidationAndOrdering checks per-query error isolation: a batch
// mixing valid and invalid queries answers 200 with inline errors at the
// right indices.
func TestBatchValidationAndOrdering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"queries":[` + chainBody(4, 500) + `,{"relations":[]},` + chainBody(3, 700) + `]}`
	resp, err := http.Post(ts.URL+"/v1/optimize/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results", len(br.Results))
	}
	if br.Results[0].Result == nil || br.Results[2].Result == nil {
		t.Fatalf("valid queries failed: %+v", br.Results)
	}
	if br.Results[1].Result != nil || br.Results[1].Code == 0 {
		t.Fatalf("invalid query did not fail inline: %+v", br.Results[1])
	}
	get, err := http.Get(ts.URL + "/v1/optimize/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", get.StatusCode)
	}
}

// TestClusterStatusEndpoint sanity-checks /v1/cluster/status and the
// blitzd_cluster_* exposition after some traffic.
func TestClusterStatusEndpoint(t *testing.T) {
	tc := startTestCluster(t, 2)
	for i := 0; i < 6; i++ {
		if code, b := postOptimize(t, tc.url(0), chainBody(5, float64(900+i*101))); code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, code, b)
		}
	}
	resp, err := http.Get(tc.url(0) + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "n1" || len(st.Nodes) != 2 || st.Ring == "" {
		t.Fatalf("status = %+v", st)
	}
	if st.OwnedLocal+st.Forwarded["n2"] == 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
	mresp, err := http.Get(tc.url(0) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"blitzd_cluster_nodes", "blitzd_cluster_forwarded_total", "blitzd_cluster_owned_local_total"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestClusterHandoffGuards covers the peer-protocol rejections: a handoff
// with a stale ring digest is refused 409, an unknown requester 404, and a
// garbage fill push 400 — without disturbing the cache.
func TestClusterHandoffGuards(t *testing.T) {
	tc := startTestCluster(t, 2)
	get := func(path string) int {
		resp, err := http.Get(tc.url(0) + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	ring := tc.nodes[0].srv.cluster.ring.Digest()
	if code := get(cluster.PeerHandoffPath + "?ring=stale&node=n2"); code != http.StatusConflict {
		t.Fatalf("stale ring: %d, want 409", code)
	}
	if code := get(cluster.PeerHandoffPath + "?ring=" + ring + "&node=intruder"); code != http.StatusNotFound {
		t.Fatalf("unknown node: %d, want 404", code)
	}
	if code := get(cluster.PeerHandoffPath + "?ring=" + ring + "&node=n2"); code != http.StatusOK {
		t.Fatalf("valid handoff: %d, want 200", code)
	}
	if code := get(cluster.PeerPlanPath + "zz-not-hex"); code != http.StatusBadRequest {
		t.Fatalf("bad key: %d, want 400", code)
	}
	if code := get(cluster.PeerPlanPath + hex.EncodeToString([]byte("absent"))); code != http.StatusNotFound {
		t.Fatalf("absent key: %d, want 404", code)
	}
	resp, err := http.Post(tc.url(0)+cluster.PeerFillPath, "application/octet-stream",
		strings.NewReader("this is not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage fill: %d, want 400", resp.StatusCode)
	}
}

// TestClusterSmoke is the cluster smoke gate (make cluster-smoke): a 3-node
// cluster serves a shape pool, loses a node, keeps answering everything
// through reroute/fallback, and the node rejoins cold but pulls a warm
// handoff that serves ≥90% of its owned shapes as cache hits.
func TestClusterSmoke(t *testing.T) {
	tc := startTestCluster(t, 3)
	const shapes = 30
	bodies := make([]string, shapes)
	for i := range bodies {
		bodies[i] = chainBody(5, float64(1000+i*97))
	}
	// Phase 1: populate through node 0; ownership spreads over the ring.
	for i, body := range bodies {
		if code, b := postOptimize(t, tc.url(0), body); code != http.StatusOK {
			t.Fatalf("populate %d: %d: %s", i, code, b)
		}
	}
	tc.settle()

	// Phase 2: kill n3. Everything must still answer through the survivors —
	// warm copies where fills already replicated, local fallback otherwise —
	// including a never-seen shape owned by the dead node.
	tc.kill(2)
	for i, body := range bodies {
		if code, b := postOptimize(t, tc.url(0), body); code != http.StatusOK {
			t.Fatalf("reroute %d with n3 dead: %d: %s", i, code, b)
		}
	}
	fresh := ""
	for card := 50000.0; ; card += 97 {
		fp := shapeFP(t, tc.nodes[0].srv, 5, card)
		if tc.nodes[0].srv.cluster.ring.Owner(fp).ID == "n3" {
			fresh = chainBody(5, card)
			break
		}
	}
	if code, b := postOptimize(t, tc.url(0), fresh); code != http.StatusOK {
		t.Fatalf("fresh shape with dead owner: %d: %s", code, b)
	}
	if got := tc.nodes[0].srv.cluster.fallbackLocal.Load(); got == 0 {
		t.Fatal("dead owner never triggered a local fallback")
	}
	tc.settle()

	// Phase 3: n3 rejoins with an empty cache and pulls the warm handoff.
	tc.restart(2)
	n3 := tc.nodes[2].srv
	loaded, err := n3.PullHandoff(context.Background())
	if err != nil {
		t.Fatalf("PullHandoff: %v (loaded %d)", err, loaded)
	}
	if loaded == 0 {
		t.Fatal("handoff loaded nothing")
	}
	// Every shape n3 owns must now serve warm. ≥90% is the acceptance bar;
	// in this deterministic setup the expectation is 100%.
	owned, warm := 0, 0
	for i, body := range bodies {
		fp := shapeFP(t, n3, 5, float64(1000+i*97))
		if n3.cluster.ring.Owner(fp).ID != "n3" {
			continue
		}
		owned++
		code, b := postOptimize(t, tc.url(2), body)
		if code != http.StatusOK {
			t.Fatalf("rejoined node, shape %d: %d: %s", i, code, b)
		}
		if decodeResponse(t, b).Cached {
			warm++
		}
	}
	if owned == 0 {
		t.Fatal("rejoined node owns no shapes — pool too small for the ring")
	}
	if warm*10 < owned*9 {
		t.Fatalf("warm-handoff hit rate %d/%d < 90%%", warm, owned)
	}
	t.Logf("cluster smoke: rejoined node served %d/%d owned shapes warm after handoff of %d entries",
		warm, owned, loaded)
}

// TestDrainRetryAfter locks in the drain contract on every serving endpoint:
// a draining node answers 503 with Retry-After so cluster peers and clients
// know to back off briefly and retry elsewhere.
func TestDrainRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	for _, ep := range []struct{ path, body string }{
		{"/v1/optimize", chainBody(4, 100)},
		{"/v1/execute", chainBody(4, 100)},
		{"/v1/optimize/batch", `{"queries":[` + chainBody(4, 100) + `]}`},
	} {
		resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(ep.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: %d, want 503", ep.path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("%s drain 503 Retry-After = %q, want \"1\"", ep.path, ra)
		}
	}
}

// TestFingerprintStableUnderRenumbering is the satellite-2 contract: the
// fingerprint in the response (and HeaderFingerprint) identifies the query
// shape, so relabeling and reordering relations must not change it, and a
// genuinely different query must.
func TestFingerprintStableUnderRenumbering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The same 4-chain 100—200—300—400, twice: different names, relations
	// and joins listed in different orders.
	a := `{"relations":[{"name":"A","cardinality":100},{"name":"B","cardinality":200},` +
		`{"name":"C","cardinality":300},{"name":"D","cardinality":400}],` +
		`"joins":[{"a":"A","b":"B","selectivity":0.001},{"a":"B","b":"C","selectivity":0.001},` +
		`{"a":"C","b":"D","selectivity":0.001}]}`
	b := `{"relations":[{"name":"w","cardinality":400},{"name":"x","cardinality":300},` +
		`{"name":"y","cardinality":200},{"name":"z","cardinality":100}],` +
		`"joins":[{"a":"x","b":"w","selectivity":0.001},{"a":"y","b":"x","selectivity":0.001},` +
		`{"a":"z","b":"y","selectivity":0.001}]}`
	get := func(body string) (OptimizeResponse, string) {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return decodeResponse(t, raw), resp.Header.Get(HeaderFingerprint)
	}
	ra, ha := get(a)
	rb, hb := get(b)
	if ra.Fingerprint == "" || ra.Fingerprint != ha {
		t.Fatalf("fingerprint body %q vs header %q", ra.Fingerprint, ha)
	}
	if ra.Fingerprint != rb.Fingerprint || ha != hb {
		t.Fatalf("renumbered query changed fingerprint: %q vs %q", ra.Fingerprint, rb.Fingerprint)
	}
	if !rb.Cached {
		t.Errorf("renumbered query missed the cache despite identical fingerprint")
	}
	rc, _ := get(chainBody(4, 5000))
	if rc.Fingerprint == ra.Fingerprint {
		t.Fatal("distinct query shares a fingerprint")
	}
}

// TestClusterPeerWorkBounded: cheap fills and pushes share one pool of
// maxPeerWork slots. Against a peer whose plan and fill handlers block until
// released, more tasks than slots are dispatched: exactly maxPeerWork reach
// the peer and the rest are skipped, not queued, and counted. A skipped fill
// releases its dedupe entry, so the shape's next forward retries it.
func TestClusterPeerWorkBounded(t *testing.T) {
	const pushes, fills = maxPeerWork * 3 / 4, maxPeerWork * 3 / 4
	var (
		mu                  sync.Mutex
		inFlight, maxFlight int
		total               int
	)
	// One slot per request the test can cause, the retry included, so no
	// handler ever blocks on it.
	arrived := make(chan struct{}, pushes+fills+1)
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inFlight++
		total++
		maxFlight = max(maxFlight, inFlight)
		mu.Unlock()
		arrived <- struct{}{}
		<-release
		mu.Lock()
		inFlight--
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, cluster.PeerPlanPath) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()
	var released sync.Once
	defer released.Do(func() { close(release) })

	owner := cluster.Node{ID: "peer", URL: peer.URL}
	s := New(Config{NodeID: "self", Peers: []cluster.Node{{ID: "self", URL: "http://127.0.0.1:1"}, owner}})
	for i := 0; i < pushes; i++ {
		q := blitzsplit.NewQuery()
		q.MustAddRelation("a", float64(10+i))
		q.MustAddRelation("b", 1000)
		q.MustJoin("a", "b", 0.01)
		if _, err := s.eng.Optimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		key, _, err := s.eng.PlanKey(q)
		if err != nil {
			t.Fatal(err)
		}
		s.asyncPushPlan(owner, key)
	}
	fillKey := func(i int) []byte { return []byte(fmt.Sprintf("fill-%d", i)) }
	for i := 0; i < fills; i++ {
		s.asyncFetchPlan(owner, fillKey(i))
	}
	for i := 0; i < maxPeerWork; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d tasks reached the peer", i, maxPeerWork)
		}
	}
	released.Do(func() { close(release) })
	s.ClusterSettle()
	mu.Lock()
	gotMax, gotTotal := maxFlight, total
	mu.Unlock()
	if gotMax > maxPeerWork || gotTotal != maxPeerWork {
		t.Fatalf("%d tasks dispatched: peer saw %d, at most %d at once; want %d, at most %d",
			pushes+fills, gotTotal, gotMax, maxPeerWork, maxPeerWork)
	}
	if got := s.cluster.workSkipped.Load(); got != pushes+fills-maxPeerWork {
		t.Fatalf("peer_work_skipped = %d, want %d", got, pushes+fills-maxPeerWork)
	}
	// The last fill found the pool full; its retry must reach the peer.
	s.asyncFetchPlan(owner, fillKey(fills-1))
	s.ClusterSettle()
	mu.Lock()
	defer mu.Unlock()
	if total != maxPeerWork+1 {
		t.Fatalf("retried fill: peer saw %d requests, want %d", total, maxPeerWork+1)
	}
}
