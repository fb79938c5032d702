package server

import (
	"strconv"
	"sync"
	"time"

	"blitzsplit"
	"blitzsplit/internal/telemetry"
)

// metrics is the server's instrumentation, all under the blitzd_ namespace.
// Request/coalescing/shedding counters are exact (the handler tests assert
// them to the unit); engine, plan-cache, and arena state is exposed as
// gauges read from one Engine.Stats() snapshot per scrape rather than by
// poking cache or arena internals.
type metrics struct {
	reg           *telemetry.Registry
	latency       *telemetry.Histogram
	optimizations *telemetry.Counter
	coalesced     *telemetry.Counter
	shed          *telemetry.Counter
	panics        *telemetry.Counter
	executions    *telemetry.Counter
	execRows      *telemetry.Counter
	execReopts    *telemetry.Counter
	execRowLimit  *telemetry.Counter

	mu     sync.Mutex
	byCode map[int]*telemetry.Counter
	byRung map[string]*telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, s *Server) *metrics {
	m := &metrics{
		reg: reg,
		latency: reg.Histogram("blitzd_request_seconds", "",
			"Optimize-request latency, admission wait and coalesced waits included."),
		optimizations: reg.Counter("blitzd_optimizations_total", "",
			"Optimizations actually run (coalesced followers excluded)."),
		coalesced: reg.Counter("blitzd_coalesced_total", "",
			"Requests that waited on an identical in-flight optimization."),
		shed: reg.Counter("blitzd_shed_total", "",
			"Requests refused with 503 (admission timeout or draining)."),
		panics: reg.Counter("blitzd_panics_total", "",
			"Requests that failed on a recovered panic (engine or handler boundary)."),
		executions: reg.Counter("blitzd_executions_total", "",
			"Plans executed to completion on /v1/execute."),
		execRows: reg.Counter("blitzd_exec_rows_total", "",
			"Result rows produced by /v1/execute, cumulative."),
		execReopts: reg.Counter("blitzd_exec_reopts_total", "",
			"Adaptive mid-query re-optimization events observed during execution."),
		execRowLimit: reg.Counter("blitzd_exec_row_limit_total", "",
			"Executions refused because an intermediate result exceeded max_rows."),
		byCode: make(map[int]*telemetry.Counter),
		byRung: make(map[string]*telemetry.Counter),
	}
	reg.GaugeFunc("blitzd_inflight", "",
		"Admitted optimizations currently running.",
		func() float64 { return float64(s.InFlight()) })
	reg.GaugeFunc("blitzd_inflight_limit", "",
		"Admission-control in-flight capacity.",
		func() float64 { return float64(cap(s.inflight)) })
	reg.GaugeFunc("blitzd_draining", "",
		"1 once BeginDrain has flipped readiness, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})

	// One Engine.Stats() snapshot per gauge read feeds every engine-level
	// series — telemetry reads the public snapshot, never cache or arena
	// internals.
	stat := func(pick func(st blitzsplit.EngineStats) float64) func() float64 {
		return func() float64 { return pick(s.eng.Stats()) }
	}
	reg.GaugeFunc("blitzd_plancache_hits_total", "", "Plan-cache hits.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Cache.Hits) }))
	reg.GaugeFunc("blitzd_plancache_misses_total", "", "Plan-cache misses.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Cache.Misses) }))
	reg.GaugeFunc("blitzd_plancache_entries", "", "Plan-cache resident entries.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Cache.Entries) }))
	reg.GaugeFunc("blitzd_plancache_bytes", "", "Plan-cache resident bytes.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Cache.Bytes) }))
	reg.GaugeFunc("blitzd_plancache_evictions_total", "", "Plan-cache LRU evictions.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Cache.Evictions) }))
	reg.GaugeFunc("blitzd_arena_live_tables", "", "DP tables currently checked out.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Arena.Live) }))
	reg.GaugeFunc("blitzd_arena_pooled_bytes", "", "Idle DP-table bytes pooled for reuse.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Arena.PooledBytes) }))
	reg.GaugeFunc("blitzd_arena_reuses_total", "", "Table checkouts served from the pool.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Arena.Reuses) }))
	reg.GaugeFunc("blitzd_panics_recovered_total", "",
		"Optimizer panics recovered at the engine boundary.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.PanicsRecovered) }))
	reg.GaugeFunc("blitzd_quarantined_shapes", "",
		"Query shapes quarantined after repeated optimizer panics.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.QuarantinedShapes) }))
	reg.GaugeFunc("blitzd_plan_downranks_total", "",
		"Cached plans demoted toward eviction after an adaptive replan proved their estimates stale.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.PlanDownranks) }))
	reg.GaugeFunc("blitzd_snapshot_age_seconds", "",
		"Seconds since the last successful plan-cache snapshot; -1 before the first.",
		func() float64 {
			st := s.eng.Stats()
			if st.LastSnapshot.At.IsZero() {
				return -1
			}
			return time.Since(st.LastSnapshot.At).Seconds()
		})
	reg.GaugeFunc("blitzd_snapshot_last_entries", "",
		"Plan-cache entries written by the last snapshot.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.LastSnapshot.Entries) }))
	reg.GaugeFunc("blitzd_snapshot_last_bytes", "",
		"Bytes written by the last snapshot.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.LastSnapshot.Bytes) }))
	reg.GaugeFunc("blitzd_snapshot_restored_entries", "",
		"Plan-cache entries restored at startup.",
		stat(func(st blitzsplit.EngineStats) float64 { return float64(st.Restore.Loaded) }))
	reg.GaugeFunc("blitzd_snapshot_restore_skipped", "",
		"Snapshot records dropped on restore (CRC or decode failures plus rejects).",
		stat(func(st blitzsplit.EngineStats) float64 {
			return float64(st.Restore.Skipped + st.Restore.Rejected)
		}))
	return m
}

// requests returns the per-status-code request counter, registering it on
// first use so only observed codes appear in the exposition.
func (m *metrics) requests(code int) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byCode[code]
	if !ok {
		c = m.reg.Counter("blitzd_requests_total",
			`code="`+strconv.Itoa(code)+`"`, "Optimize requests by HTTP status.")
		m.byCode[code] = c
	}
	return c
}

// degraded returns the per-rung degradation counter.
func (m *metrics) degraded(mode string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byRung[mode]
	if !ok {
		c = m.reg.Counter("blitzd_degraded_total",
			`rung="`+mode+`"`, "Responses degraded off the exhaustive rung, by winning rung.")
		m.byRung[mode] = c
	}
	return c
}
