package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

// Concurrent increments must account exactly: the serving tests assert
// request counters to the last unit, so the counter itself has to be exact
// under contention.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {(1 << 20) + 1, 21},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 99 fast observations and one slow one: p50 lands in the fast bucket,
	// p99+ in the slow one; the estimate is each bucket's upper bound.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 7: ≤128 ns
	}
	h.Observe(time.Second) // bucket 30: ≤ 2^30 ns ≈ 1.07 s
	if got := h.Quantile(0.50); got != 128*time.Nanosecond {
		t.Errorf("p50 = %v, want 128ns", got)
	}
	if got := h.Quantile(1.0); got != time.Duration(1<<30) {
		t.Errorf("p100 = %v, want %v", got, time.Duration(1<<30))
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	wantSum := 99*100*time.Nanosecond + time.Second
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
	// Quantile extremes clamp instead of indexing out of range.
	if got := h.Quantile(0); got != 128*time.Nanosecond {
		t.Errorf("p0 = %v, want first occupied bucket bound", got)
	}
	// Negative durations observe as zero rather than corrupting the sum.
	var h2 Histogram
	h2.Observe(-time.Second)
	if h2.Sum() != 0 || h2.Count() != 1 {
		t.Errorf("negative observe: sum %v count %d", h2.Sum(), h2.Count())
	}
}

func TestRegistryDeduplicates(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", `code="200"`, "")
	b := r.Counter("x_total", `code="200"`, "")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", `code="503"`, "")
	if a == c {
		t.Fatal("different labels must be distinct series")
	}
	h1 := r.Histogram("lat_seconds", "", "")
	h2 := r.Histogram("lat_seconds", "", "")
	if h1 != h2 {
		t.Fatal("histogram registration must deduplicate")
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("blitzd_requests_total", `code="200"`, "Requests by status code.")
	r.Counter("blitzd_requests_total", `code="503"`, "Requests by status code.").Add(3)
	reqs.Add(7)
	r.GaugeFunc("blitzd_inflight", "", "In-flight requests.", func() float64 { return 2.5 })
	h := r.Histogram("blitzd_latency_seconds", "", "Request latency.")
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE blitzd_requests_total counter",
		"# HELP blitzd_requests_total Requests by status code.",
		`blitzd_requests_total{code="200"} 7`,
		`blitzd_requests_total{code="503"} 3`,
		"# TYPE blitzd_inflight gauge",
		"blitzd_inflight 2.5",
		"# TYPE blitzd_latency_seconds histogram",
		`blitzd_latency_seconds_bucket{le="+Inf"} 2`,
		"blitzd_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per name even with two labeled series.
	if n := strings.Count(out, "# TYPE blitzd_requests_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(out, `blitzd_latency_seconds_bucket{le="1.28e-07"} 1`) {
		t.Errorf("missing cumulative 128ns bucket:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", "").Add(5)
	r.GaugeFunc("g", "", "", func() float64 { return 1.5 })
	h := r.Histogram("lat_seconds", "", "")
	h.Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if m["a_total"].(float64) != 5 {
		t.Errorf("a_total = %v", m["a_total"])
	}
	if m["g"].(float64) != 1.5 {
		t.Errorf("g = %v", m["g"])
	}
	hs := m["lat_seconds"].(map[string]any)
	if hs["count"].(float64) != 1 {
		t.Errorf("histogram count = %v", hs["count"])
	}
	if hs["p50_seconds"].(float64) <= 0 {
		t.Errorf("histogram p50 = %v, want > 0", hs["p50_seconds"])
	}
}
