package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit"
)

// reply is the part of an /v1/optimize or /v1/execute response the benchmark
// checks.
type reply struct {
	Cost      float64 `json:"cost"`
	Rows      int64   `json:"rows"`
	Mode      string  `json:"mode"`
	Cached    bool    `json:"cached"`
	ElapsedUS int64   `json:"elapsed_us"`
}

// sample is one request answered 200. It holds no pointers, so the
// hundreds of thousands a run keeps cost the client's garbage collector
// nothing to scan.
type sample struct {
	i          int
	wall       time.Duration
	cost       float64
	rows       int64
	elapsedUS  int64
	cached     bool
	exhaustive bool
}

// loadResult is one closed-loop phase. issued is one past the highest
// request index sent.
type loadResult struct {
	ok        []sample
	attempted int
	failed    int
	issued    int
	firstErr  error
	elapsed   time.Duration
}

// poster sends request bodies to one daemon endpoint.
type poster struct {
	client *http.Client
	url    string
}

// post sends one body, reads the whole response into buf, and decodes it.
func (p *poster) post(body []byte, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	var r reply
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// closedLoop sends requests 0, 1, 2, … over conns connections. Each
// connection sends its next request only when the previous reply has
// arrived, the way a query compiler blocks on its plan. Request i carries
// body(i) whichever connection takes it; more(i) decides whether request i is
// still sent.
func (p *poster) closedLoop(conns int, body func(int) []byte, more func(int) bool) loadResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var ok []sample
			attempted, failed := 0, 0
			var firstErr error
			issued := 0
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					break
				}
				b := body(i)
				attempted++
				issued = i + 1
				t0 := time.Now()
				r, err := p.post(b, &buf)
				wall := time.Since(t0)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					continue
				}
				ok = append(ok, sample{i: i, wall: wall, cost: r.Cost, rows: r.Rows, elapsedUS: r.ElapsedUS,
					cached: r.Cached, exhaustive: r.Mode == blitzsplit.ModeExhaustive})
			}
			mu.Lock()
			res.ok = append(res.ok, ok...)
			res.attempted += attempted
			res.failed += failed
			res.issued = max(res.issued, issued)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.ok, func(a, b int) bool { return res.ok[a].i < res.ok[b].i })
	return res
}

// percentile returns the p-quantile (0 < p < 1) of sorted by nearest rank,
// and whether at least ten samples lie beyond it: a percentile with fewer
// is a single outlier's value, not a measurement.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= 10
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
