package main

import "testing"

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_ops", better: "higher", bound: 0.10}
	layer := metricDef{name: "core.fill_us", better: "lower"}
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"identical", lower, base, base, "same"},
		{"small shift inside noise", lower, base, shift(base, 1.004), "same"},
		{"faster everywhere", lower, base, shift(base, 0.95), "better"},
		{"slower beyond the bound", lower, base, shift(base, 1.15), "worse"},
		{"slower within the bound", lower, base, shift(base, 1.05), "same"},
		{"more throughput", higher, base, shift(base, 1.08), "better"},
		{"less throughput beyond the bound", higher, base, shift(base, 0.85), "worse"},
		{"wins only 8 of 10 pairs", lower, base,
			[]float64{95, 96, 94, 95.5, 94.5, 95, 95.2, 94.8, 101, 103}, "same"},
		{"spread wider than the bound", lower,
			[]float64{80, 120, 100, 70, 130, 100, 90, 110, 100, 100},
			[]float64{110, 75, 95, 125, 70, 100, 105, 90, 100, 104}, "unresolved"},
		{"per-layer slower", layer, base, shift(base, 1.2), "worse"},
		{"per-layer unchanged", layer, base, base, "same"},
		{"no runs", lower, nil, base, "unresolved"},
	} {
		if got := verdict(tc.def, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
