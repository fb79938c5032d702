package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares record files of a base and a head build: for every
// workload and metric it prints each side's median and quartiles and a
// verdict. It exits 1 when an end-to-end metric is worse.
func compareMain(basePaths, headPaths []string, stdout, stderr io.Writer) int {
	base, err := loadRuns(basePaths)
	if err == nil {
		var head map[string]map[string][]float64
		if head, err = loadRuns(headPaths); err == nil {
			return printComparison(stdout, base, head)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

// loadRuns reads record files and collects every metric's values by
// workload ("name" or "name traced"), one value per run in file order.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf recordFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rf.Runs {
			if !r.Correct {
				return nil, fmt.Errorf("%s: %s run is not correct", p, r.Workload)
			}
			w := r.Workload
			if r.Trace {
				w += " traced"
			}
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[w][name] = append(out[w][name], v.Value)
			}
		}
	}
	return out, nil
}

func printComparison(w io.Writer, base, head map[string]map[string][]float64) int {
	fmt.Fprintf(w, "%-16s %-32s %-28s %-28s %s\n", "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "verdict")
	worse := false
	for _, wl := range sortedKeys(base) {
		for _, name := range sortedKeys(base[wl]) {
			h, ok := head[wl][name]
			def, declared := lookupDef(name)
			if !ok || !declared {
				continue
			}
			b := base[wl][name]
			v := verdict(def, b, h)
			if v == "worse" && def.bound > 0 {
				worse = true
			}
			fmt.Fprintf(w, "%-16s %-32s %-28s %-28s %s\n", wl, name, summary(b), summary(h), v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g]", median(xs), q1, q3)
}

// verdict judges head against base by the rule for a small sandbox:
//
//   - worse: the median is worse by more than the metric's bound;
//   - better: head wins at least nine tenths of the pairs (runs paired in
//     order, ties counting for neither) and the medians differ by more than
//     the distance between base's quartiles;
//   - unresolved: either side's quartile spread, as a share of its median,
//     exceeds the bound, unless every head run beats every base run;
//   - same: none of these.
//
// Per-layer metrics have no bound: they are better, worse (the mirror of
// the better rule) or same.
func verdict(def metricDef, base, head []float64) string {
	if len(base) == 0 || len(head) == 0 {
		return "unresolved"
	}
	sign := 1.0
	if def.better == "lower" {
		sign = -1
	}
	mb, mh := median(base), median(head)
	gain := sign * (mh - mb)
	if def.bound > 0 && gain < -def.bound*math.Abs(mb) {
		return "worse"
	}
	pairs := min(len(base), len(head))
	wins, losses := 0, 0
	for j := 0; j < pairs; j++ {
		switch d := sign * (head[j] - base[j]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, q3 := quartiles(base)
	switch {
	case 10*wins >= 9*pairs && gain > q3-q1:
		return "better"
	case def.bound == 0 && 10*losses >= 9*pairs && -gain > q3-q1:
		return "worse"
	}
	if def.bound > 0 && max(spread(base), spread(head)) > def.bound && !dominates(sign, head, base) {
		return "unresolved"
	}
	return "same"
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := math.Abs(median(xs))
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// dominates reports whether every head value is better than every base
// value.
func dominates(sign float64, head, base []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
