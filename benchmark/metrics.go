package main

// metricDef declares one reported metric. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two identical.
type metricDef struct {
	name, unit, better string
	// bound is the share of the base median by which an end-to-end metric
	// may worsen before a comparison calls it worse; per-layer metrics have
	// none.
	bound float64
}

// endToEnd are what a caller of blitzd sees, measured with tracing off.
// Errors are not a metric: every request that fails or answers wrongly is
// counted in the result's "failed" and fails the run.
// Times are at the reference host speed (calib.go).
var endToEnd = []metricDef{
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	// The 90th percentile of resident memory sampled while requests are
	// timed; the kernel's peak (VmHWM) moved with GC timing by up to a
	// quarter between runs.
	{"server_rss_p90_mb", "MiB", "lower", 0.25},
	// Share of answers from the exhaustive rung; its bound is half a
	// percentage point of degraded answers.
	{"exhaustive_pct", "%", "higher", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// modelNames are the cost models the formula (3) fit reports, one fit each.
var modelNames = []string{"naive", "sortmerge", "dnl"}

// perLayer come from the traced replay, or are scraped from the daemon
// after the end-to-end part of a traced run. Layer times are mean self time
// per call over the timed requests, as measured; 0 means the workload's path
// never calls that layer. host.speed_pct is the run's median host speed.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.decode_us", "us", "lower", 0},
		{"spec.validate_us", "us", "lower", 0},
		{"spec.query_us", "us", "lower", 0},
		{"blitzsplit.query_build_us", "us", "lower", 0},
		{"canon.canonicalize_us", "us", "lower", 0},
		{"blitzsplit.optimize_us", "us", "lower", 0},
		{"server.encode_us", "us", "lower", 0},
		{"server.handler_us", "us", "lower", 0},
		{"server.outside_handler_us", "us", "lower", 0},
		{"blitzsplit.rebuild_us", "us", "lower", 0},
		{"canon.relabel_us", "us", "lower", 0},
		{"plancache.probe_us", "us", "lower", 0},
		{"plancache.put_us", "us", "lower", 0},
		{"core.fill_us", "us", "lower", 0},
		{"blitzsplit.unaccounted_pct", "%", "lower", 0},
		{"plancache.hit_pct", "%", "higher", 0},
		{"plancache.evictions_per_kop", "1/kop", "lower", 0},
		{"plancache.resident_mb", "MiB", "lower", 0},
		{"core.loop_iters_per_op", "count", "lower", 0},
		{"core.kpp_evals_per_op", "count", "lower", 0},
		{"core.cond_hits_per_op", "count", "lower", 0},
		{"core.subsets_per_op", "count", "lower", 0},
		{"core.ns_per_loop_iter", "ns", "lower", 0},
	}
	for _, m := range modelNames {
		defs = append(defs,
			metricDef{"core.t_loop_ns." + m, "ns", "lower", 0},
			metricDef{"core.t_cond_ns." + m, "ns", "lower", 0},
			metricDef{"core.t_subset_ns." + m, "ns", "lower", 0},
			metricDef{"core.formula3_err_pct." + m, "%", "lower", 0},
		)
	}
	return append(defs,
		metricDef{"engine.synth_us", "us", "lower", 0},
		metricDef{"engine.synth_rows_per_s", "rows/s", "higher", 0},
		metricDef{"exec.run_us", "us", "lower", 0},
		metricDef{"exec.rows_processed_per_s", "rows/s", "higher", 0},
		metricDef{"exec.intermediate_rows_per_op", "rows", "lower", 0},
		metricDef{"exec.join_us", "us", "lower", 0},
		metricDef{"server.coalesced_pct", "%", "lower", 0},
		metricDef{"server.shed_pct", "%", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
		metricDef{"trace.coverage_pct", "%", "higher", 0},
		metricDef{"host.speed_pct", "%", "higher", 0},
	)
}()

// value is one measured metric as the result line reports it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]value

// set records a metric under its declared unit.
func (ms metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			ms[name] = value{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// lookupDef finds a declared metric by name in either list.
func lookupDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
