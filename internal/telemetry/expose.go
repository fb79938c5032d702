package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Metrics sharing a name emit one
// HELP/TYPE header (the first registration's help wins); histograms emit
// cumulative le buckets trimmed to the occupied range plus +Inf, _sum, and
// _count.
func (r *Registry) WriteProm(w io.Writer) error {
	ms := r.snapshotMetrics()
	// Group same-name series together (stable within a name by registration
	// order) so each name gets exactly one HELP/TYPE header.
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var lastName string
	for _, m := range ms {
		if m.name != lastName {
			typ := "counter"
			switch m.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
				return err
			}
			lastName = m.name
		}
		if err := writePromSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

func writePromSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(m.name, m.labels), m.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(m.name, m.labels),
			strconv.FormatFloat(m.g(), 'g', -1, 64))
		return err
	case kindHistogram:
		return writePromHistogram(w, m)
	}
	return nil
}

// seriesName renders name{labels} (or the bare name when labels are empty).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// bucketLabel joins the constant labels with the le bound.
func bucketLabel(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

func writePromHistogram(w io.Writer, m *metric) error {
	h := m.h
	// Find the highest occupied bucket so the output stays readable; the
	// cumulative counts below it fully determine every trimmed bucket.
	top := 0
	var counts [histBuckets]uint64
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.counts[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		le := strconv.FormatFloat(float64(uint64(1)<<i)/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.name, bucketLabel(m.labels, le), cum); err != nil {
			return err
		}
	}
	count := h.Count()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.name, bucketLabel(m.labels, "+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(m.name+"_sum", m.labels),
		strconv.FormatFloat(h.Sum().Seconds(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(m.name+"_count", m.labels), count)
	return err
}

// HistogramSnapshot is the /debug/vars view of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	SumS  float64 `json:"sum_seconds"`
	P50S  float64 `json:"p50_seconds"`
	P99S  float64 `json:"p99_seconds"`
}

// Snapshot returns count, sum, and the two headline quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		SumS:  h.Sum().Seconds(),
		P50S:  h.Quantile(0.50).Seconds(),
		P99S:  h.Quantile(0.99).Seconds(),
	}
}

// WriteJSON renders every metric as one flat JSON object keyed by
// name{labels}: counters as integers, gauges as numbers, histograms as
// {count, sum_seconds, p50_seconds, p99_seconds} objects. Served at
// /debug/vars.
func (r *Registry) WriteJSON(w io.Writer) error {
	ms := r.snapshotMetrics()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		key := seriesName(m.name, m.labels)
		switch m.kind {
		case kindCounter:
			out[key] = m.c.Value()
		case kindGauge:
			out[key] = m.g()
		case kindHistogram:
			out[key] = m.h.Snapshot()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
