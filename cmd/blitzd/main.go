// Command blitzd serves join-order optimization over HTTP: the blitzsplit
// Engine behind request coalescing, admission control, and a telemetry
// layer (see internal/server).
//
// Usage:
//
//	blitzd [flags]
//
// Flags:
//
//	-addr a           listen address (default :7433)
//	-max-inflight n   concurrently admitted optimizations (0 = 2×GOMAXPROCS)
//	-admission-wait d time a request may queue for a slot before 503 (100ms)
//	-timeout d        default per-request optimization deadline (2s)
//	-max-timeout d    cap on client-requested deadlines (30s)
//	-max-n n          largest accepted relation count (30)
//	-max-synth-rows n largest total base-row count /v1/execute may synthesize (~4M)
//	-enumerator e     exact fill strategy: blitz | ccp | auto (topology-aware)
//	-mem-budget b     per-request DP-table byte budget, e.g. 64MiB (0 = arena budget)
//	-cache-bytes b    plan-cache byte budget, e.g. 64MiB (0 = 64MiB default)
//	-arena-bytes b    DP-table arena byte budget (0 = 256MiB default)
//	-drain-timeout d  grace period for in-flight requests on shutdown (10s)
//	-snapshot p       plan-cache snapshot file for warm restarts (empty = off)
//	-snapshot-interval d  periodic snapshot cadence (30s)
//	-panic-every n    chaos: panic the optimizer on every nth cold run (0 = off)
//	-peers l          static cluster membership, "id=url,id=url,..." (empty = single node)
//	-node-id id       this node's ID within -peers (required with -peers)
//	-advertise url    overrides this node's URL from -peers (rarely needed)
//	-version          print version and build info, then exit
//
// With -peers and -node-id, blitzd joins a fingerprint-sharded cluster: every
// node accepts every request, but each canonical query shape has one home
// shard (consistent hashing over the canonical fingerprint), so cache
// residency and request coalescing are cluster-wide. Non-owned requests
// forward one hop to their owner; owner failure falls back to local
// optimization plus a background push of the plan to the owner. At startup a
// cluster node pulls a warm handoff — the cache entries it now owns — from
// its peers, so a rejoining or replacement node serves warm from the first
// request. Cluster endpoints: POST /v1/optimize/batch, GET /v1/cluster/status,
// and the peer protocol under /v1/peer/. All peers must be started with the
// same -peers list (IDs and URLs): handoffs are refused across disagreeing
// membership.
//
// Endpoints: POST /v1/optimize, POST /v1/execute (optimize + synthesize +
// run the plan on the vectorized engine, returning actual row counts and
// execution statistics), GET /metrics, GET /debug/vars, GET /healthz,
// GET /readyz, and the net/http/pprof profiling suite under GET
// /debug/pprof/ — live CPU profiles with
//
//	go tool pprof http://localhost:7433/debug/pprof/profile?seconds=30
//
// and allocation profiles with
//
//	go tool pprof http://localhost:7433/debug/pprof/allocs
//
//	curl -s localhost:7433/v1/optimize -d '{
//	  "relations": [{"name": "A", "cardinality": 1000},
//	                {"name": "B", "cardinality": 5000}],
//	  "joins": [{"a": "A", "b": "B", "selectivity": 0.001}]
//	}'
//
// On SIGTERM or SIGINT blitzd drains gracefully: /readyz flips to 503, new
// optimize requests are refused, in-flight requests run to completion (up to
// -drain-timeout), then — with -snapshot — a final plan-cache snapshot is
// written before the process exits 0.
//
// With -snapshot, blitzd restores the file at startup (a corrupt or partial
// snapshot restores what survives and serves cold for the rest; only an
// unwritable snapshot *path* is fatal, exit 3) and rewrites it every
// -snapshot-interval. SIGHUP takes a manual snapshot on demand. Kill blitzd
// however hard you like: the atomic write protocol means the file is always a
// complete snapshot from some recent instant, and the next start comes up
// warm.
//
// Exit codes: 0 clean exit, 1 runtime error (listen failure, drain cut
// short), 2 usage, 3 unwritable -snapshot path at startup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"blitzsplit"
	"blitzsplit/internal/buildinfo"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/server"
	"blitzsplit/internal/snapshot"
	"blitzsplit/internal/units"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
	// exitSnapshot distinguishes a dead-on-arrival snapshot configuration —
	// the -snapshot path cannot be written at startup — from runtime errors:
	// an operator typo must fail loudly, while a corrupt snapshot *file* is
	// logged, skipped, and served past.
	exitSnapshot = 3
)

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// runMain is main minus process exit and signal wiring, so the serve/drain
// lifecycle is testable: the test injects its own signal channel and sends
// SIGTERM when it has asserted the serving behavior.
func runMain(args []string, out, errOut io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("blitzd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", ":7433", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "concurrently admitted optimizations (0 = 2×GOMAXPROCS)")
	admissionWait := fs.Duration("admission-wait", 0, "time a request may queue for a slot before 503 (0 = 100ms)")
	timeout := fs.Duration("timeout", 0, "default per-request optimization deadline (0 = 2s)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 30s)")
	maxN := fs.Int("max-n", 0, "largest accepted relation count (0 = 30)")
	maxSynthRows := fs.Float64("max-synth-rows", 0, "largest total base-row count /v1/execute may synthesize (0 = ~4M)")
	enumName := fs.String("enumerator", "blitz", "exact fill strategy (blitz | ccp | auto)")
	memBudget := fs.String("mem-budget", "", "per-request DP-table byte budget, e.g. 64MiB (empty = arena budget)")
	cacheBytes := fs.String("cache-bytes", "", "plan-cache byte budget, e.g. 64MiB (empty = 64MiB default)")
	arenaBytes := fs.String("arena-bytes", "", "DP-table arena byte budget (empty = 256MiB default)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	snapshotPath := fs.String("snapshot", "", "plan-cache snapshot file for warm restarts (empty = off)")
	snapshotInterval := fs.Duration("snapshot-interval", 0, "periodic snapshot cadence (0 = 30s)")
	panicEvery := fs.Uint64("panic-every", 0, "chaos: panic the optimizer on every nth cold run (0 = off)")
	peersFlag := fs.String("peers", "", `static cluster membership, "id=url,id=url,..." (empty = single node)`)
	nodeID := fs.String("node-id", "", "this node's ID within -peers (required with -peers)")
	advertise := fs.String("advertise", "", "overrides this node's URL from -peers (rarely needed)")
	version := fs.Bool("version", false, "print version and build info, then exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Fprintln(out, "blitzd", buildinfo.String())
		return exitOK
	}

	enum, err := blitzsplit.ParseEnumerator(*enumName)
	if err != nil {
		fmt.Fprintf(errOut, "blitzd: -enumerator: %v\n", err)
		return exitUsage
	}
	var peers []cluster.Node
	if *peersFlag != "" || *nodeID != "" {
		// Cluster mode needs both halves: the membership and who we are in it.
		if *peersFlag == "" || *nodeID == "" {
			fmt.Fprintln(errOut, "blitzd: -peers and -node-id must be set together")
			return exitUsage
		}
		peers, err = cluster.ParsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(errOut, "blitzd: -peers: %v\n", err)
			return exitUsage
		}
		found := false
		for i := range peers {
			if peers[i].ID == *nodeID {
				found = true
				if *advertise != "" {
					peers[i].URL = *advertise
				}
			}
		}
		if !found {
			fmt.Fprintf(errOut, "blitzd: -node-id %q does not appear in -peers\n", *nodeID)
			return exitUsage
		}
	} else if *advertise != "" {
		fmt.Fprintln(errOut, "blitzd: -advertise requires -peers and -node-id")
		return exitUsage
	}
	cfg := server.Config{
		NodeID:           *nodeID,
		Peers:            peers,
		MaxInFlight:      *maxInFlight,
		AdmissionWait:    *admissionWait,
		RequestTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxRelations:     *maxN,
		MaxSynthRows:     *maxSynthRows,
		Enumerator:       enum,
		SnapshotPath:     *snapshotPath,
		SnapshotInterval: *snapshotInterval,
	}
	for _, b := range []struct {
		flag string
		val  string
		dst  *uint64
	}{
		{"-mem-budget", *memBudget, &cfg.MemBudget},
		{"-cache-bytes", *cacheBytes, &cfg.EngineOptions.CacheBytes},
		{"-arena-bytes", *arenaBytes, &cfg.EngineOptions.ArenaBytes},
	} {
		if b.val == "" {
			continue
		}
		v, err := units.ParseBytes(b.val)
		if err != nil {
			fmt.Fprintf(errOut, "blitzd: %s: %v\n", b.flag, err)
			return exitUsage
		}
		*b.dst = v
	}

	if *panicEvery > 0 {
		// Deterministic chaos: every nth cold optimization panics at the
		// engine's fault point, exercising the recover → 500 → quarantine
		// machinery from the outside (blitzbench -exp chaos drives this).
		var n atomic.Uint64
		every := *panicEvery
		faultinject.Set(faultinject.EngineOptimize, func() {
			if n.Add(1)%every == 0 {
				panic(fmt.Sprintf("blitzd: injected chaos panic (-panic-every %d)", every))
			}
		})
		fmt.Fprintf(out, "blitzd: chaos mode: panicking every %d cold optimizations\n", every)
	}

	srv := server.New(cfg)
	if *snapshotPath != "" {
		// An unwritable snapshot path is an operator error worth dying over —
		// silently serving without persistence would defeat the warm-restart
		// contract. Probe before listening so the failure is immediate.
		if err := snapshot.Probe(*snapshotPath); err != nil {
			fmt.Fprintf(errOut, "blitzd: -snapshot path not writable: %v\n", err)
			return exitSnapshot
		}
		// A corrupt or partial snapshot file, by contrast, is logged and
		// served past: whatever restores is warm, the rest comes back cold.
		ls, err := srv.RestoreSnapshot()
		if err != nil {
			fmt.Fprintf(errOut, "blitzd: snapshot restore failed (serving cold): %v\n", err)
		} else {
			fmt.Fprintf(out, "blitzd: snapshot restore: %v\n", ls)
		}
	}

	if srv.ClusterEnabled() {
		// Warm handoff: pull the cache entries this node owns under the
		// current ring from whichever peers are already up. Best-effort — a
		// lone first node or a cold cluster just starts cold. Runs after the
		// snapshot restore so a local snapshot's entries win LRU recency.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		loaded, err := srv.PullHandoff(ctx)
		cancel()
		switch {
		case err != nil && loaded == 0:
			fmt.Fprintf(errOut, "blitzd: warm handoff unavailable (serving cold): %v\n", err)
		case err != nil:
			fmt.Fprintf(out, "blitzd: warm handoff: %d entries (some peers unavailable: %v)\n", loaded, err)
		default:
			fmt.Fprintf(out, "blitzd: warm handoff: %d entries\n", loaded)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(errOut, "blitzd:", err)
		return exitError
	}
	// The resolved address line is load-bearing: with -addr :0 (tests, smoke
	// targets) it is how the caller learns the port.
	fmt.Fprintf(out, "blitzd %s listening on %s\n", buildinfo.String(), ln.Addr())

	stopSnapshots := srv.StartSnapshots(func(err error) {
		fmt.Fprintln(errOut, "blitzd: periodic snapshot failed:", err)
	})
	defer stopSnapshots()

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				// Manual snapshot on demand; the daemon keeps serving.
				if ws, err := srv.SnapshotNow(); err != nil {
					fmt.Fprintln(errOut, "blitzd: SIGHUP snapshot failed:", err)
				} else {
					fmt.Fprintf(out, "blitzd: SIGHUP snapshot: %d entries, %d bytes\n",
						ws.Entries, ws.Bytes)
				}
				continue
			}
			fmt.Fprintf(out, "blitzd: %v: draining (readiness down, %v grace)\n", sig, *drainTimeout)
			// Flip readiness first so load balancers stop routing here, then let
			// the HTTP layer wait out the in-flight handlers.
			srv.BeginDrain()
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				fmt.Fprintln(errOut, "blitzd: drain cut short:", err)
				return exitError
			}
			// The cache is quiescent now — every handler has returned — so
			// this final snapshot captures everything the run learned.
			stopSnapshots()
			if *snapshotPath != "" {
				if ws, err := srv.SnapshotNow(); err != nil {
					fmt.Fprintln(errOut, "blitzd: final snapshot failed:", err)
				} else {
					fmt.Fprintf(out, "blitzd: final snapshot: %d entries, %d bytes\n",
						ws.Entries, ws.Bytes)
				}
			}
			fmt.Fprintln(out, "blitzd: drained, bye")
			return exitOK
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(errOut, "blitzd:", err)
				return exitError
			}
			return exitOK
		}
	}
}
