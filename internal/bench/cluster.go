package bench

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit/internal/workload"
)

// Cluster is the distributed-serving experiment: real blitzd subprocesses —
// one node, then a 3-node fingerprint-sharded cluster — driven by a
// closed-loop generator whose shape popularity is zipf-distributed, the way
// production query traffic repeats. Every node runs with the same
// deliberately small plan-cache budget (sized at a third of full pool
// residency, measured by a probe run), so the experiment isolates the claim:
// sharding by canonical fingerprint makes cache residency cluster-wide —
// three nodes hold three times the plans, and the hit+coalesce rate rises
// above what any single node with the same per-node budget can reach.
//
// Requests are sprayed round-robin across all nodes (any node accepts any
// request; non-owned shapes forward one hop to their home shard), 503 sheds
// are retried per the server's Retry-After with jittered backoff, and any
// other failure fails the experiment. With ClusterJSON nonempty a
// BENCH_cluster.json artifact is written there.
func Cluster(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Cluster: fingerprint-sharded blitzd nodes vs a single node ==\n")
	fmt.Fprintf(w, "Claim: consistent-hash sharding over canonical fingerprints makes cache\n")
	fmt.Fprintf(w, "residency cluster-wide, so a 3-node cluster's hit+coalesce rate beats a\n")
	fmt.Fprintf(w, "single node with the same per-node cache budget under zipf traffic.\n\n")

	bin, cleanup, err := buildBlitzd()
	if err != nil {
		return err
	}
	defer cleanup()

	n := cfg.n()
	if n > 7 {
		n = 7 // cold runs stay sub-millisecond; the experiment measures serving, not DP
	}
	rng := rand.New(rand.NewSource(2027))
	cases := workload.RandomCases(rng, clusterPool, n, 2, 1e5)
	bodies := make([]string, len(cases))
	for i, c := range cases {
		bodies[i] = serveBody(c)
	}

	// Probe: serve the whole pool once on an unconstrained node and measure
	// what full residency costs, then budget every measured node at a third
	// of it. A single node can then hold a third of the pool; three shards
	// together hold all of it.
	fullBytes, err := probePoolBytes(bin, bodies)
	if err != nil {
		return err
	}
	cacheBudget := fullBytes / 3
	if cacheBudget < 16384 {
		cacheBudget = 16384
	}
	fmt.Fprintf(w, "pool: %d shapes at n=%d, %d bytes fully resident; per-node cache budget %d bytes\n\n",
		len(bodies), n, fullBytes, cacheBudget)

	d := cfg.Budget
	if d < 300*time.Millisecond {
		d = 300 * time.Millisecond
	}

	fmt.Fprintf(w, "%6s %6s %10s %10s %10s %12s %12s %8s %8s\n",
		"nodes", "conc", "requests", "p99 µs", "qps", "hit%", "hit+coal%", "retries", "skipped")
	var results []map[string]any
	// rate[nodes] is the combined hit+coalesce rate at the top concurrency.
	rate := map[int]float64{}
	for _, nodes := range []int{1, 3} {
		for _, level := range []int{4, 16} {
			lr, err := clusterLevel(bin, nodes, level, d, cacheBudget, bodies)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %6d %10d %10.1f %10.0f %11.1f%% %11.1f%% %8d %8d\n",
				nodes, level, lr.requests, lr.p99US, lr.qps,
				100*lr.hitRate, 100*lr.combinedRate, lr.retries, lr.skipped)
			prefix := fmt.Sprintf("cluster/nodes=%d/c=%d/", nodes, level)
			results = append(results,
				map[string]any{"case": prefix + "requests", "value": lr.requests},
				map[string]any{"case": prefix + "p99_us", "value": round1(lr.p99US)},
				map[string]any{"case": prefix + "qps", "value": round1(lr.qps)},
				map[string]any{"case": prefix + "hit_rate_pct", "value": round1(100 * lr.hitRate)},
				map[string]any{"case": prefix + "hit_coalesce_rate_pct", "value": round1(100 * lr.combinedRate)},
				map[string]any{"case": prefix + "retries_503", "value": lr.retries},
				map[string]any{"case": prefix + "peer_work_skipped", "value": lr.skipped},
			)
			rate[nodes] = lr.combinedRate
		}
	}

	fmt.Fprintf(w, "\nObserved: the cluster serves each shape from its home shard, so the\n")
	fmt.Fprintf(w, "aggregate cache holds the whole pool while the single node churns its\n")
	fmt.Fprintf(w, "LRU on the zipf tail: %.1f%% hit+coalesce at 3 nodes vs %.1f%% at 1.\n",
		100*rate[3], 100*rate[1])
	if rate[3] <= rate[1] {
		return fmt.Errorf("bench: cluster: 3-node hit+coalesce rate %.1f%% did not beat the single node's %.1f%%",
			100*rate[3], 100*rate[1])
	}

	if cfg.ClusterJSON != "" {
		return writeArtifact(cfg.ClusterJSON, "blitzbench -exp cluster",
			"go run ./cmd/blitzbench -exp cluster -cluster-json BENCH_cluster.json",
			fmt.Sprintf("Closed-loop zipf load (s=%.1f over %d shapes at n=%d) against real "+
				"blitzd subprocesses: a single node, then a 3-node fingerprint-sharded cluster, "+
				"every node capped at a %d-byte plan cache (a third of full pool residency, probed "+
				"at startup). Requests spray round-robin across nodes; non-owned shapes forward "+
				"one hop to their home shard, so cache residency is cluster-wide. "+
				"hit_rate_pct counts client-observed cached responses; hit_coalesce_rate_pct adds "+
				"the servers' exact coalesced-wait counters. Each nodes×concurrency cell runs a "+
				"fresh set of processes for %v. p99_us is the client-side per-request wall "+
				"including forwards and any 503 backoff. peer_work_skipped sums the nodes' "+
				"cheap fills and pushes turned away by a full peer-work pool.", zipfS, len(bodies), n, cacheBudget, d),
			results)
	}
	return nil
}

// clusterPool is the shape-pool size; with zipfS skew the head few shapes
// carry most of the traffic and the tail provides the cache pressure.
const (
	clusterPool = 64
	zipfS       = 1.3
)

type clusterLevelResult struct {
	requests     int
	p99US        float64
	qps          float64
	hitRate      float64 // client-observed cached:true
	combinedRate float64 // (cache hits + coalesced waits) / requests
	skipped      int64   // peer fills and pushes the nodes turned away
	retries      int64
}

// clusterLevel starts `nodes` fresh blitzd processes (a sharded cluster when
// nodes > 1), drives them closed-loop at `level` workers for duration d, and
// reports client-side latency plus the cluster-wide hit and coalesce rates.
func clusterLevel(bin string, nodes, level int, d time.Duration, cacheBudget uint64, bodies []string) (clusterLevelResult, error) {
	var zero clusterLevelResult
	daemons, err := startClusterNodes(bin, nodes, cacheBudget)
	if err != nil {
		return zero, err
	}
	defer func() {
		for _, dm := range daemons {
			dm.kill9()
		}
	}()

	var next atomic.Int64
	var failures, retries atomic.Int64
	var hits atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	deadline := start.Add(d)
	lat := make([][]time.Duration, level)
	var wg sync.WaitGroup
	for wkr := 0; wkr < level; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(9001 + wkr)))
			zipf := rand.NewZipf(wrng, zipfS, 1, uint64(len(bodies)-1))
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				body := bodies[zipf.Uint64()]
				dm := daemons[int(i)%len(daemons)] // spray: any node accepts any request
				t0 := time.Now()
				attempt := 0
			retryReq:
				code, resp, err := dm.post(body)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if code == http.StatusServiceUnavailable && servePolicy.Retryable(attempt) {
					attempt++
					retries.Add(1)
					time.Sleep(servePolicy.Delay("", attempt, wrng))
					if time.Now().After(deadline) {
						return
					}
					goto retryReq
				}
				if code != http.StatusOK {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("status %d after %d retries", code, attempt))
					continue
				}
				if strings.Contains(resp, `"cached":true`) {
					hits.Add(1)
				}
				lat[wkr] = append(lat[wkr], time.Since(t0))
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if f := failures.Load(); f > 0 {
		return zero, fmt.Errorf("bench: cluster nodes=%d c=%d: %d failed requests (first: %v)",
			nodes, level, f, firstErr.Load())
	}

	var all []time.Duration
	for _, ls := range lat {
		all = append(all, ls...)
	}
	if len(all) == 0 {
		return zero, fmt.Errorf("bench: cluster nodes=%d c=%d: no requests completed", nodes, level)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// Coalesced waits are invisible to the client (the follower's response
	// looks like the leader's); sum them from every node's exact telemetry.
	var coalesced, skipped float64
	client := &http.Client{Timeout: 10 * time.Second}
	for _, dm := range daemons {
		vars, err := scrapeVars(client, dm.base)
		if err != nil {
			return zero, err
		}
		coalesced += vars["blitzd_coalesced_total"]
		skipped += vars["blitzd_cluster_peer_work_skipped_total"]
	}

	h := float64(hits.Load())
	total := float64(len(all))
	return clusterLevelResult{
		requests:     len(all),
		p99US:        float64(all[int(0.99*float64(len(all)-1))].Nanoseconds()) / 1e3,
		qps:          total / elapsed.Seconds(),
		hitRate:      h / total,
		combinedRate: (h + coalesced) / total,
		retries:      retries.Load(),
		skipped:      int64(skipped),
	}, nil
}

// startClusterNodes reserves ports for the whole membership first — the
// -peers list must name every URL before any node starts — then launches the
// processes. A single node starts without cluster flags: the baseline is
// plain blitzd, not a cluster of one.
func startClusterNodes(bin string, nodes int, cacheBudget uint64) ([]*chaosDaemon, error) {
	addrs := make([]string, nodes)
	lns := make([]net.Listener, nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	var peerList []string
	for i, a := range addrs {
		peerList = append(peerList, fmt.Sprintf("n%d=http://%s", i+1, a))
	}
	common := []string{"-cache-bytes", fmt.Sprint(cacheBudget), "-max-inflight", "64"}
	var daemons []*chaosDaemon
	for i, a := range addrs {
		args := append([]string{"-addr", a}, common...)
		if nodes > 1 {
			args = append(args, "-peers", strings.Join(peerList, ","), "-node-id", fmt.Sprintf("n%d", i+1))
		}
		dm, err := startBlitzd(bin, args...)
		if err != nil {
			for _, started := range daemons {
				started.kill9()
			}
			return nil, fmt.Errorf("bench: cluster node %d: %w", i+1, err)
		}
		daemons = append(daemons, dm)
	}
	return daemons, nil
}

// probePoolBytes serves every shape once on an unconstrained node and reads
// back what full pool residency costs in plan-cache bytes.
func probePoolBytes(bin string, bodies []string) (uint64, error) {
	dm, err := startBlitzd(bin)
	if err != nil {
		return 0, fmt.Errorf("bench: cluster probe: %w", err)
	}
	defer dm.kill9()
	for i, body := range bodies {
		code, _, err := dm.post(body)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("bench: cluster probe shape %d: status %d err %v", i, code, err)
		}
	}
	vars, err := scrapeVars(dm.client, dm.base)
	if err != nil {
		return 0, err
	}
	b := uint64(vars["blitzd_plancache_bytes"])
	if b == 0 {
		return 0, fmt.Errorf("bench: cluster probe: plan cache reported 0 resident bytes")
	}
	return b, nil
}
