package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit/internal/cluster"
	"blitzsplit/internal/retry"
	"blitzsplit/internal/telemetry"
)

// maxFillBody bounds a single /v1/peer/fill payload: one snapshot record
// plus framing. MaxSnapshotRecord in internal/plancache is 16 MiB; anything
// larger is not a record the loader would accept anyway.
const maxFillBody = 17 << 20

// maxPeerWork bounds the background peer work (cheap fills and pushes) in
// flight at once. Each task may hold a peer connection for up to 5 s, so
// without a bound only the request rate would limit their number. Tasks
// turned away by a full pool count in blitzd_cluster_peer_work_skipped_total;
// under `blitzbench -exp cluster` (16 closed-loop clients, three nodes) that
// counter stays 0 (EXPERIMENTS.md).
const maxPeerWork = 64

// clusterState is the sharded-serving layer attached to a Server when
// Config.NodeID/Peers are set: the consistent-hash ring, the peer client,
// and the blitzd_cluster_* counters. Membership is static for the life of
// the process — a change means new flags and a restart, with warm handoff
// (PullHandoff) moving the cache entries that changed owner.
type clusterState struct {
	self   cluster.Node
	ring   *cluster.Ring
	client *cluster.Client

	// wg tracks async peer work (cheap fills after forwards, push fills
	// after owner-failure fallbacks) so drain and tests can settle it; slots
	// holds one token per task in flight, at most maxPeerWork.
	wg    sync.WaitGroup
	slots chan struct{}
	// fillInFlight dedupes concurrent cheap fills per engine cache key.
	fillInFlight sync.Map

	// Counters, exposed as blitzd_cluster_* gauges and /v1/cluster/status.
	ownedLocal    atomic.Uint64 // requests this node owns
	received      atomic.Uint64 // forwarded requests served for peers
	warmLocal     atomic.Uint64 // peer-owned requests served from a warm local copy
	fallbackLocal atomic.Uint64 // peer-owned requests served locally (owner unreachable)
	fillFetched   atomic.Uint64 // plans pulled from owners after forwards
	fillPushed    atomic.Uint64 // plans pushed to owners after fallbacks
	fillReceived  atomic.Uint64 // entries loaded via /v1/peer/fill
	workSkipped   atomic.Uint64 // fills and pushes not run: peer-work pool full
	planServed    atomic.Uint64 // /v1/peer/plan hits answered
	planMissed    atomic.Uint64 // /v1/peer/plan misses answered
	handoffSent   atomic.Uint64 // entries streamed out via /v1/peer/handoff
	handoffLoaded atomic.Uint64 // entries loaded by PullHandoff

	mu          sync.Mutex
	forwarded   map[string]*atomic.Uint64 // by peer ID
	forwardErrs map[string]*atomic.Uint64
}

func newClusterState(s *Server, cfg Config) *clusterState {
	cs := &clusterState{
		ring:        cluster.NewRing(cfg.Peers),
		slots:       make(chan struct{}, maxPeerWork),
		forwarded:   make(map[string]*atomic.Uint64),
		forwardErrs: make(map[string]*atomic.Uint64),
	}
	if self, ok := cs.ring.Lookup(cfg.NodeID); ok {
		cs.self = self
	} else {
		// A node absent from its own peer list owns nothing and forwards
		// everything — a misconfiguration cmd/blitzd refuses, but the server
		// stays well-defined if constructed this way directly.
		cs.self = cluster.Node{ID: cfg.NodeID}
	}
	// One attempt rides out a peer's brief shed; a dead peer must fail fast
	// into the local-fallback path, so forwards retry far less than an
	// offline bench client would.
	cs.client = cluster.NewClient(cfg.NodeID, cfg.MaxTimeout+5*time.Second)
	cs.client.Retry = retry.Policy{MaxAttempts: 2, Base: 50 * time.Millisecond, Cap: 250 * time.Millisecond}
	for _, n := range cs.ring.Nodes() {
		if n.ID == cs.self.ID {
			continue
		}
		cs.forwarded[n.ID] = new(atomic.Uint64)
		cs.forwardErrs[n.ID] = new(atomic.Uint64)
	}
	cs.register(s.met.reg)
	return cs
}

// register publishes the cluster counters. Monotonic counters surface
// through GaugeFunc like the engine-level *_total series: the source of
// truth stays one set of atomics shared with /v1/cluster/status.
func (cs *clusterState) register(reg *telemetry.Registry) {
	gauge := func(name, labels, help string, v *atomic.Uint64) {
		reg.GaugeFunc(name, labels, help, func() float64 { return float64(v.Load()) })
	}
	reg.GaugeFunc("blitzd_cluster_nodes", "", "Static cluster membership size.",
		func() float64 { return float64(cs.ring.Size()) })
	gauge("blitzd_cluster_owned_local_total", "",
		"Optimize requests whose shape this node owns.", &cs.ownedLocal)
	gauge("blitzd_cluster_received_total", "",
		"Forwarded optimize requests served on behalf of peers.", &cs.received)
	gauge("blitzd_cluster_warm_local_total", "",
		"Peer-owned requests served from a warm local cache copy.", &cs.warmLocal)
	gauge("blitzd_cluster_fallback_local_total", "",
		"Peer-owned requests optimized locally because the owner was unreachable.", &cs.fallbackLocal)
	gauge("blitzd_cluster_fill_fetched_total", "",
		"Plans pulled from owners after forwarded requests (cheap fills).", &cs.fillFetched)
	gauge("blitzd_cluster_fill_pushed_total", "",
		"Plans pushed to owners after local fallbacks.", &cs.fillPushed)
	gauge("blitzd_cluster_fill_received_total", "",
		"Cache entries loaded from peer fill pushes.", &cs.fillReceived)
	gauge("blitzd_cluster_peer_work_skipped_total", "",
		"Cheap fills and pushes not run because the peer-work pool was full.", &cs.workSkipped)
	gauge("blitzd_cluster_peer_plan_served_total", "",
		"Peer plan probes answered with an entry.", &cs.planServed)
	gauge("blitzd_cluster_peer_plan_missed_total", "",
		"Peer plan probes answered 404.", &cs.planMissed)
	gauge("blitzd_cluster_handoff_sent_entries_total", "",
		"Cache entries streamed to rejoining peers via warm handoff.", &cs.handoffSent)
	gauge("blitzd_cluster_handoff_loaded_entries_total", "",
		"Cache entries loaded from peers' warm handoffs.", &cs.handoffLoaded)
	for id, v := range cs.forwarded {
		gauge("blitzd_cluster_forwarded_total", `peer="`+id+`"`,
			"Optimize requests forwarded to their owning peer.", v)
	}
	for id, v := range cs.forwardErrs {
		gauge("blitzd_cluster_forward_errors_total", `peer="`+id+`"`,
			"Forward attempts that failed over to local serving.", v)
	}
}

// ClusterEnabled reports whether this server is part of a sharded cluster.
func (s *Server) ClusterEnabled() bool { return s.cluster != nil }

// ClusterSettle blocks until all async cluster work (cheap fills, push
// fills) has finished. Drain calls it so a terminating node does not abandon
// a plan push mid-flight; tests call it before asserting cache state.
func (s *Server) ClusterSettle() {
	if s.cluster != nil {
		s.cluster.wg.Wait()
	}
}

// clusterGo runs f on the cluster's tracked async pool with a panic
// boundary: background fills must never take the process down. With
// maxPeerWork tasks already in flight it runs nothing, counts the skip and
// reports false. Peer work is best effort: a skipped fill is retried by the
// shape's next forward, but a skipped push is dropped, because the fallback
// that caused it cached the plan here and later requests serve that warm
// copy without forwarding; the owner fills the shape itself on its next
// request for it. Fills and pushes share the pool, so pushes to a hung
// owner, each holding a slot for up to 5 s, can crowd out fills from
// healthy peers.
func (s *Server) clusterGo(f func()) bool {
	select {
	case s.cluster.slots <- struct{}{}:
	default:
		s.cluster.workSkipped.Add(1)
		return false
	}
	s.cluster.wg.Add(1)
	go func() {
		defer s.cluster.wg.Done()
		defer func() { <-s.cluster.slots }()
		defer func() {
			if recover() != nil {
				s.handlerPanics.Add(1)
			}
		}()
		f()
	}()
	return true
}

// routeOptimize decides where a resolved /v1/optimize request is served.
//
//	routed true          — the owner's response has been relayed; done.
//	pushTo non-nil       — owner unreachable: caller serves locally, then
//	                       pushes the resulting plan (c.key) to pushTo.
//	both zero            — serve locally (self-owned, already-forwarded,
//	                       warm local copy, or no key).
func (s *Server) routeOptimize(w http.ResponseWriter, r *http.Request, c *call) (routed bool, pushTo *cluster.Node) {
	cs := s.cluster
	if r.Header.Get(cluster.HeaderForwarded) != "" {
		// One hop maximum: a forwarded request is served here no matter what
		// this node's ring says, so disagreeing rings can never loop.
		cs.received.Add(1)
		return false, nil
	}
	if c.key == nil {
		// PlanKey failed: the local spine reports the error properly; routing
		// has nothing to add.
		return false, nil
	}
	owner := cs.ring.Owner(c.fp)
	if owner.ID == cs.self.ID || owner.ID == "" || owner.URL == "" {
		cs.ownedLocal.Add(1)
		return false, nil
	}
	// The plan-cache key decides warm-copy serving and names the entry in
	// every peer-fill exchange.
	if s.eng.HasPlan(c.key) {
		// A hot shape replicated here by an earlier cheap fill: serve the
		// warm copy without a network hop. The owner remains the coalescing
		// point for cold optimizations only.
		cs.warmLocal.Add(1)
		return false, nil
	}
	body, err := json.Marshal(c.req)
	if err != nil {
		return false, nil
	}
	fresp, err := cs.client.Forward(r.Context(), owner, "/v1/optimize", "application/json", body)
	if err != nil {
		// Owner down or unreachable: availability beats placement. Serve
		// locally and push the plan to its home shard afterwards, so the
		// owner is warm when it returns.
		cs.forwardErrs[owner.ID].Add(1)
		cs.fallbackLocal.Add(1)
		return false, &owner
	}
	defer fresp.Body.Close()
	relay, err := io.ReadAll(fresp.Body)
	if err != nil || fresp.StatusCode == http.StatusServiceUnavailable {
		// Transport failure, or the owner is draining/shedding after the
		// client's retries ran out: both are owner failure from the caller's
		// point of view. Serve locally rather than relay the refusal.
		cs.forwardErrs[owner.ID].Add(1)
		cs.fallbackLocal.Add(1)
		return false, &owner
	}
	cs.forwarded[owner.ID].Add(1)
	for _, h := range []string{"Content-Type", "Retry-After", HeaderFingerprint} {
		if v := fresp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(fresp.StatusCode)
	_, _ = w.Write(relay)
	s.met.requests(fresp.StatusCode).Inc()
	if fresp.StatusCode == http.StatusOK {
		s.asyncFetchPlan(owner, c.key)
	}
	return true, nil
}

// asyncFetchPlan pulls the (now cached) plan from the owner in the
// background — the cheap fill that lets hot shapes serve warm everywhere
// while cold shapes live only at their home shard. Concurrent fills for the
// same key collapse to one.
func (s *Server) asyncFetchPlan(owner cluster.Node, ekey []byte) {
	cs := s.cluster
	keyStr := string(ekey)
	if _, loaded := cs.fillInFlight.LoadOrStore(keyStr, struct{}{}); loaded {
		return
	}
	started := s.clusterGo(func() {
		defer cs.fillInFlight.Delete(keyStr)
		if s.eng.HasPlan(ekey) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stream, found, err := cs.client.FetchPlan(ctx, owner, hex.EncodeToString(ekey))
		if err != nil || !found {
			return
		}
		if _, err := s.eng.LoadSnapshot(bytes.NewReader(stream)); err == nil {
			cs.fillFetched.Add(1)
		}
	})
	if !started {
		cs.fillInFlight.Delete(keyStr)
	}
}

// asyncPushPlan exports the locally produced plan and pushes it to its
// owner — best-effort repair after an owner-unreachable fallback, so the
// shape's home shard is warm once the owner returns.
func (s *Server) asyncPushPlan(owner cluster.Node, ekey []byte) {
	cs := s.cluster
	s.clusterGo(func() {
		var buf bytes.Buffer
		ok, err := s.eng.ExportPlan(&buf, ekey)
		if err != nil || !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cs.client.PushPlan(ctx, owner, buf.Bytes()); err == nil {
			cs.fillPushed.Add(1)
		}
	})
}

// handlePeerPlan answers GET /v1/peer/plan/<hex cache key> with a one-record
// snapshot stream of the entry, or 404 — the cheap-fill read side.
func (s *Server) handlePeerPlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	key, err := hex.DecodeString(r.URL.Path[len(cluster.PeerPlanPath):])
	if err != nil {
		s.fail(w, http.StatusBadRequest, "malformed key: %v", err)
		return
	}
	var buf bytes.Buffer
	ok, err := s.eng.ExportPlan(&buf, key)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		s.cluster.planMissed.Add(1)
		s.fail(w, http.StatusNotFound, "plan not resident")
		return
	}
	s.cluster.planServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(buf.Bytes())
}

// handlePeerFill accepts POST /v1/peer/fill: a snapshot stream (normally one
// record) loaded into the local cache. The loader's corruption tolerance
// applies — a damaged push shortens to nothing, never errors the server.
func (s *Server) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ls, err := s.eng.LoadSnapshot(io.LimitReader(r.Body, maxFillBody))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ls.Loaded == 0 && ls.Rejected > 0 {
		// The loader swallows foreign bytes quietly (bad magic counts one
		// rejection and restores nothing); surface that to the pusher — a
		// misrouted or version-skewed payload should not look like success.
		s.fail(w, http.StatusBadRequest, "payload is not a loadable snapshot")
		return
	}
	s.cluster.fillReceived.Add(uint64(ls.Loaded))
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerHandoff streams every cache entry the ring assigns to the
// requesting node: GET /v1/peer/handoff?ring=<digest>&node=<id>. The digest
// must match this node's ring — entries filtered by a disagreeing ring would
// land on the wrong shard — and the requester must be a member.
func (s *Server) handlePeerHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	cs := s.cluster
	if ringD := r.URL.Query().Get("ring"); ringD != cs.ring.Digest() {
		s.fail(w, http.StatusConflict, "ring digest %q does not match %q", ringD, cs.ring.Digest())
		return
	}
	nodeID := r.URL.Query().Get("node")
	if _, ok := cs.ring.Lookup(nodeID); !ok {
		s.fail(w, http.StatusNotFound, "unknown node %q", nodeID)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	ws, err := s.eng.WriteSnapshotOwned(w, func(fp []byte) bool {
		return cs.ring.Owner(fp).ID == nodeID
	})
	if err == nil {
		cs.handoffSent.Add(uint64(ws.Entries))
	}
	// A mid-stream write error means the peer hung up; its loader treats the
	// truncated tail gracefully and nothing can be sent after the body
	// started, so the error is dropped here.
}

// PullHandoff asks every peer for the cache entries this node owns under the
// current ring — the warm side of a membership change. A freshly (re)started
// node calls it once at startup: what was cold restart becomes a warm join,
// with each surviving peer streaming over exactly the shapes that now belong
// here. Peers that are down or on a different ring are skipped (first such
// error is returned after all peers were tried); loading tolerates damaged
// streams per the snapshot codec.
func (s *Server) PullHandoff(ctx context.Context) (loaded int, err error) {
	cs := s.cluster
	if cs == nil {
		return 0, nil
	}
	var firstErr error
	for _, n := range cs.ring.Nodes() {
		if n.ID == cs.self.ID {
			continue
		}
		rc, err := cs.client.Handoff(ctx, n, cs.ring.Digest())
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ls, err := s.eng.LoadSnapshot(rc)
		rc.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		loaded += ls.Loaded
		cs.handoffLoaded.Add(uint64(ls.Loaded))
	}
	return loaded, firstErr
}

// ClusterStatus is the GET /v1/cluster/status body.
type ClusterStatus struct {
	Node  string       `json:"node"`
	Ring  string       `json:"ring"`
	Nodes []PeerStatus `json:"nodes"`

	OwnedLocal    uint64            `json:"owned_local"`
	Received      uint64            `json:"received"`
	WarmLocal     uint64            `json:"warm_local"`
	FallbackLocal uint64            `json:"fallback_local"`
	Forwarded     map[string]uint64 `json:"forwarded"`
	ForwardErrors map[string]uint64 `json:"forward_errors"`
	FillFetched   uint64            `json:"fill_fetched"`
	FillPushed    uint64            `json:"fill_pushed"`
	FillReceived  uint64            `json:"fill_received"`
	WorkSkipped   uint64            `json:"peer_work_skipped"`
	HandoffSent   uint64            `json:"handoff_sent_entries"`
	HandoffLoaded uint64            `json:"handoff_loaded_entries"`
}

// PeerStatus is one membership row of ClusterStatus.
type PeerStatus struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
}

// handleClusterStatus answers GET /v1/cluster/status with the node's view of
// the ring and its sharding counters.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	st := ClusterStatus{
		Node:          cs.self.ID,
		Ring:          cs.ring.Digest(),
		OwnedLocal:    cs.ownedLocal.Load(),
		Received:      cs.received.Load(),
		WarmLocal:     cs.warmLocal.Load(),
		FallbackLocal: cs.fallbackLocal.Load(),
		Forwarded:     make(map[string]uint64, len(cs.forwarded)),
		ForwardErrors: make(map[string]uint64, len(cs.forwardErrs)),
		FillFetched:   cs.fillFetched.Load(),
		FillPushed:    cs.fillPushed.Load(),
		FillReceived:  cs.fillReceived.Load(),
		WorkSkipped:   cs.workSkipped.Load(),
		HandoffSent:   cs.handoffSent.Load(),
		HandoffLoaded: cs.handoffLoaded.Load(),
	}
	for _, n := range cs.ring.Nodes() {
		st.Nodes = append(st.Nodes, PeerStatus{ID: n.ID, URL: n.URL, Self: n.ID == cs.self.ID})
	}
	for id, v := range cs.forwarded {
		st.Forwarded[id] = v.Load()
	}
	for id, v := range cs.forwardErrs {
		st.ForwardErrors[id] = v.Load()
	}
	s.writeJSON(w, http.StatusOK, st)
}
