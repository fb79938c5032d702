# Pre-merge gate and common developer targets. `make ci` is the check to run
# before merging (README "Testing"): vet + build + full tests + the
# parallel-fill cross-checks under the race detector + coverage floors +
# short fuzzing smoke runs of the invariant harness.

GO ?= go

# Per-target budget for the fuzz smoke (the nightly deep run raises this).
FUZZTIME ?= 10s

# Minimum statement coverage (percent) for the packages whose correctness
# everything else leans on.
COVER_MIN ?= 80
COVER_PKGS = ./internal/core ./internal/check ./internal/canon ./internal/ccp ./internal/cluster ./internal/engine ./internal/exec ./internal/plancache ./internal/retry ./internal/server ./internal/snapshot ./internal/telemetry

.PHONY: ci fmt vet build test race stress bench bench-parallel bench-enumerators bench-chaos bench-exec bench-cluster profile serve-smoke chaos-smoke cluster-smoke examples-smoke fuzz-smoke cover

ci: fmt vet build test race stress cover fuzz-smoke serve-smoke chaos-smoke cluster-smoke examples-smoke

# gofmt is the style gate: any file needing reformatting fails the build.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

# The benchmark is a module of its own (benchmark/go.mod), which the root
# ./... patterns skip: vet and test it explicitly. -short skips its end-to-end
# smoke run; `make bench` is the real thing.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

build:
	$(GO) build ./...

# Every test invocation carries an explicit -timeout: a hang in the
# budget/cancellation machinery must fail the gate, not wedge it.
test:
	$(GO) test -timeout 300s ./...
	$(GO) -C benchmark test -short -timeout 300s ./...

# The rank-layer parallel fill and the budget watcher are the concurrent
# code in the module; exercise their cross-check tests with -race on every
# merge.
race:
	$(GO) test -race -timeout 600s -run 'Parallel' ./internal/core/...

# Looped race-detector runs of the resource-governance and serving paths:
# cancellation mid-fill, goroutine-leak settling, memory admission, table
# reuse after a budget stop, every degradation-ladder rung, the
# concurrent Engine (sharded plan cache + pooled arena under mixed load),
# and the execution free lists (key-column slabs and executors reused by
# concurrent synthesize–run–release loops).
# -count defeats test caching so each loop re-races the watcher/worker
# shutdown and the cache/arena locking.
stress:
	$(GO) test -race -timeout 600s -count=5 \
		-run 'Budget|Cancel|Ladder|Leak|Deadline|Clamp|Engine|Cache|Arena|Reuse|Concurrent|Canonicalizer|Enumerator|Snapshot|Quarantine|Panic' \
		./internal/core/ ./internal/hybrid/ ./internal/plancache/ ./internal/canon/ .
	$(GO) test -race -timeout 600s -count=5 \
		-run 'FuzzEnumerators|CCP|Seeded|OperandFloor|CacheFaithful|SnapshotFaithful' \
		./internal/check/ ./internal/core/
	$(GO) test -race -timeout 600s -count=5 \
		-run 'ValidateScan|FuzzSynthesizeDraw|Release|Concurrent' \
		./internal/spec/ ./internal/engine/ ./internal/freelist/
	$(GO) test -race -timeout 600s -count=5 \
		-run 'Stress|Coalesc|Drain|Shed|Overload|Snapshot|Panic|Quarantine|Write|Probe|Execute|Fingerprint|LargeChainBoundedAlloc' \
		./internal/server/ ./internal/telemetry/ ./internal/snapshot/
	$(GO) test -race -timeout 600s -count=5 \
		-run 'Cluster|Ring|Forward|Retry|Backoff|Pipe' \
		./internal/cluster/ ./internal/retry/ ./internal/server/ ./internal/plancache/
	$(GO) test -race -timeout 600s -count=5 \
		-run 'Exec|Adaptive|Vectorized|Splice|Downrank' \
		./internal/exec/ ./internal/plan/ ./internal/check/ .

# Run every native fuzz target for FUZZTIME each, starting from the
# checked-in corpora under internal/check/testdata/fuzz/,
# internal/engine/testdata/fuzz/, internal/plancache/testdata/fuzz/ and
# internal/server/testdata/fuzz/. FuzzDecodeRequest is blitzd's request
# decoder against encoding/json: every body the fast path accepts must decode
# bit-identically under json.Unmarshal. Go allows only one -fuzz pattern per
# invocation, hence one run per target.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzOptimize$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/check/
	$(GO) test -fuzz='^FuzzSpecRoundTrip$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/check/
	$(GO) test -fuzz='^FuzzBitset$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/check/
	$(GO) test -fuzz='^FuzzEnumerators$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/check/
	$(GO) test -fuzz='^FuzzExecVectorized$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/check/
	$(GO) test -fuzz='^FuzzSnapshotLoad$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/plancache/
	$(GO) test -fuzz='^FuzzSynthesizeDraw$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/engine/
	$(GO) test -fuzz='^FuzzDecodeRequest$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/server/

# Enforce the coverage floor on the optimizer core and the invariant
# harness. A drop below COVER_MIN fails the build.
cover:
	@status=0; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=coverage.out "$$pkg" >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_MIN)%)"; \
		if awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN { exit !(p+0 < m+0) }'; then \
			echo "FAIL: $$pkg below $(COVER_MIN)% statement coverage"; status=1; \
		fi; \
	done; \
	rm -f coverage.out; \
	exit $$status

# The end-to-end blitzd benchmark declared in BENCHMARK.json (see
# benchmark/README.md): all four workloads, end to end and traced. Pass
# flags through BENCH_ARGS, e.g. BENCH_ARGS="--workload execute --trace 0".
bench:
	bash benchmark/run.sh $(BENCH_ARGS)

# Regenerate the numbers behind BENCH_parallel.json (see EXPERIMENTS.md).
bench-parallel:
	$(GO) test -run '^$$' -bench 'ParallelFill' -benchtime=3x ./internal/core/

# The four artifact targets below pass -buildvcs=true: `go run` embeds no VCS
# revision by default, and each artifact's "build" field should name the
# commit that measured it.

# Regenerate BENCH_enumerators.json (see EXPERIMENTS.md): the 3^n-vs-CCP
# speedup curve by topology, about 25 s on one core. The n=25 clique
# acceptance point is recorded as skipped; adding -enum-frontier measures it
# (~8.5e11 split iterations, a couple of hours on one core).
bench-enumerators:
	$(GO) run -buildvcs=true ./cmd/blitzbench -exp enumerators -enum-json BENCH_enumerators.json

# Regenerate BENCH_chaos.json (see EXPERIMENTS.md): the crash-safety harness —
# kill -9/restart cycles, snapshot corruption, and injected panics against a
# real blitzd subprocess.
bench-chaos:
	$(GO) run -buildvcs=true ./cmd/blitzbench -exp chaos -chaos-json BENCH_chaos.json

# Regenerate BENCH_exec.json (see EXPERIMENTS.md): the vectorized executor's
# throughput on an optimal n=12 chain plan, plus the adaptive
# re-optimization skew experiment.
bench-exec:
	$(GO) run -buildvcs=true ./cmd/blitzbench -exp exec -exec-json BENCH_exec.json

# Regenerate BENCH_cluster.json (see EXPERIMENTS.md): zipf traffic against a
# 3-node fingerprint-sharded cluster of real blitzd subprocesses vs a single
# node with the same per-node cache budget.
bench-cluster:
	$(GO) run -buildvcs=true ./cmd/blitzbench -exp cluster -budget 2s -cluster-json BENCH_cluster.json

# One-stop profiling run: CPU + allocation profiles of the engine's cache-hit
# and cold-fill benchmarks (n = 12 star), ready for go tool pprof. Their
# allocation counts are gated by TestEngineCacheHitAllocs and
# TestEngineColdFillAllocs; end-to-end timing is the benchmark's -compare.
profile:
	$(GO) test -run '^$$' -bench EngineCache -benchmem -o blitzsplit.test \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof — inspect with: $(GO) tool pprof blitzsplit.test cpu.prof"

# End-to-end smoke of cmd/blitzd: start it on an ephemeral port, optimize one
# query, scrape /metrics, then shut down cleanly via SIGTERM and require
# exit 0. Guards the flag wiring and signal path that the in-process tests
# cannot see.
serve-smoke:
	@set -e; \
	$(GO) build -o /tmp/blitzd-smoke ./cmd/blitzd; \
	/tmp/blitzd-smoke -addr 127.0.0.1:0 >/tmp/blitzd-smoke.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.* listening on //p' /tmp/blitzd-smoke.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "blitzd never announced its address"; kill $$pid; exit 1; }; \
	body='{"relations":[{"name":"A","cardinality":1000},{"name":"B","cardinality":5000}],"joins":[{"a":"A","b":"B","selectivity":0.001}]}'; \
	resp=$$(curl -sf -d "$$body" "http://$$addr/v1/optimize") || { echo "optimize request failed"; kill $$pid; exit 1; }; \
	echo "$$resp" | grep -q '"mode":"exhaustive"' || { echo "unexpected response: $$resp"; kill $$pid; exit 1; }; \
	curl -sf "http://$$addr/metrics" | grep -q 'blitzd_requests_total{code="200"} 1' || { echo "/metrics missing request count"; kill $$pid; exit 1; }; \
	curl -sf "http://$$addr/readyz" >/dev/null || { echo "/readyz not ready"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "blitzd exited nonzero after SIGTERM"; exit 1; }; \
	grep -q "drained, bye" /tmp/blitzd-smoke.log || { echo "no drain farewell in log"; exit 1; }; \
	echo "serve-smoke: OK"

# Crash-safety smoke: the full chaos experiment (kill -9/restart warm-hit
# cycles, snapshot corruption, injected panics) against a real blitzd
# subprocess. The harness fails loudly if the warm hit rate after a hard kill
# drops below 90%, if a corrupt snapshot breaks serving, or if an injected
# panic escapes quarantine — so running it IS the assertion.
chaos-smoke:
	$(GO) run ./cmd/blitzbench -exp chaos -quiet
	@echo "chaos-smoke: OK"

# Cluster smoke: the 3-node in-process cluster test — populate, kill a node,
# require every request still answered through reroute/fallback, rejoin the
# node cold and require the warm handoff to serve ≥90% of its owned shapes as
# cache hits — under the race detector. The test fails loudly on any of those,
# so running it IS the assertion.
cluster-smoke:
	$(GO) test -race -timeout 300s -count=1 -run '^TestClusterSmoke$$' ./internal/server/
	@echo "cluster-smoke: OK"

# Examples smoke: `go build ./...` only compiles the examples/* programs; run
# each one and fail on a nonzero exit, so a usage doc that breaks at run time
# fails the gate too.
examples-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for ex in examples/*/; do \
		name=$$(basename "$$ex"); \
		$(GO) build -o "$$dir/$$name" "./$$ex"; \
		"$$dir/$$name" >/dev/null || { echo "examples-smoke: $$name exited nonzero"; exit 1; }; \
	done; \
	echo "examples-smoke: OK"
