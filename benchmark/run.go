package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// conns is the closed loop's connection count: one per core of the 2-core
// host the bounds were set on. The callers of a join optimizer are query
// compilers that block on the plan, so the loop is closed.
const conns = 2

// verifyMin is how many timed opt-cold and opt-churn requests every run
// checks against the in-process replay (all of them in shorter runs).
const verifyMin = 1000

// An untraced run sets the daemon up at least minSetups times, and more,
// up to maxSetups, until setupTime has been spent; setup_s is the median.
// A traced run sets up once.
const (
	minSetups = 3
	maxSetups = 9
	setupTime = 2.0 // seconds
)

// moreSetups reports whether a run that has set up n times, spending
// spent seconds, sets up again.
func moreSetups(traced bool, n int, spent float64) bool {
	if traced {
		return n == 0
	}
	return n < minSetups || n < maxSetups && spent < setupTime
}

// rssInterval is how often the daemon's resident set is sampled while
// requests are timed.
const rssInterval = 50 * time.Millisecond

// spanCap bounds each traced pass's span buffer (32 bytes a span).
const spanCap = 1 << 18

// bench holds what every run of one invocation shares.
type bench struct {
	bin     string
	seed    int64
	seconds float64
	spans   string
	client  *http.Client
	// serverProcs is blitzd's GOMAXPROCS, read from its admission limit.
	serverProcs int
}

// runRecord is one run's result.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Problems make the run incorrect; notes do not.
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

func (r *runRecord) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runRecord) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// run measures one workload. Untraced, it reports the end-to-end metrics of
// a run of b.seconds after warm-up, with setup_s the median of several
// set-ups. Traced, it spends half of b.seconds on the end-to-end loop and
// half on the traced replay, and reports the per-layer metrics. A returned
// error means the run could not be made at all.
func (b *bench) run(name string, traced bool) (*runRecord, error) {
	t, err := newTraffic(name, b.seed)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: name, Seed: b.seed, Seconds: b.seconds, Trace: traced, Metrics: metricSet{}}
	if t.coreRefs {
		if err := t.referenceCosts(conns); err != nil {
			return nil, err
		}
	}
	measure := b.seconds
	if traced {
		measure = b.seconds / 2
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setupS, speeds []float64
	for spent := 0.0; moreSetups(traced, len(setupS), spent); {
		if d != nil {
			d.stop()
		}
		speed := calibrate()
		start := time.Now()
		if d, err = startDaemon(b.bin, t.daemonArgs(), b.client); err != nil {
			return nil, err
		}
		if err := b.warmUp(t, d); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		spent += took
		setupS = append(setupS, took*speed)
		speeds = append(speeds, speed)
	}

	before, err := d.vars(b.client)
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssSamples := d.sampleRSS(rssInterval, stopRSS)
	tm, err := b.timed(t, d, seconds(measure))
	close(stopRSS)
	rss := <-rssSamples
	if err != nil {
		return nil, err
	}
	res := tm.res
	speeds = append(speeds, tm.speeds...)
	after, err := d.vars(b.client)
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	b.serverProcs = int(after["blitzd_inflight_limit"] / 2)
	delta := func(k string) float64 { return after[k] - before[k] }

	rec.Attempted, rec.Failed = res.attempted, res.failed
	if res.failed > 0 {
		rec.problem("%d of %d requests failed (first: %v)", res.failed, res.attempted, res.firstErr)
	}
	if len(res.ok) == 0 {
		return nil, errors.New(name + ": no request succeeded")
	}

	var rep *replayRun
	if traced {
		before := calibrate()
		if rep, err = replayTraced(t, seconds(measure)); err != nil {
			return nil, err
		}
		rep.speed = (before + calibrate()) / 2
		speeds = append(speeds, rep.speed)
		if b.spans != "" {
			if err := os.MkdirAll(b.spans, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(b.spans, "spans-"+name+".jsonl")
			if err := writeSpans(path, map[string]*tracer{"B": rep.trB, "C": rep.trC}); err != nil {
				return nil, err
			}
		}
	}
	if err := verify(t, res.ok, rep, rec); err != nil {
		return nil, err
	}

	hits, exhaustive := 0, 0
	for _, s := range res.ok {
		if s.cached {
			hits++
		}
		if s.exhaustive {
			exhaustive++
		}
	}
	ok := float64(len(res.ok))
	if share := float64(hits) / ok; share < t.minHit || share > t.maxHit {
		rec.problem("plan-cache hit share %.4f outside [%g, %g]", share, t.minHit, t.maxHit)
	}
	if t.maxHit == 0 && delta("blitzd_plancache_hits_total") != 0 {
		rec.problem("daemon counted %.0f plan-cache hits, want 0", delta("blitzd_plancache_hits_total"))
	}

	speed := median(speeds)
	if !traced {
		lat := append([]float64(nil), tm.latMs...)
		sort.Float64s(lat)
		ms := rec.Metrics
		ms.set(endToEnd, "throughput_ops", ok/tm.refSeconds)
		p50, _ := percentile(lat, 0.50)
		ms.set(endToEnd, "latency_p50_ms", p50)
		if p99, supported := percentile(lat, 0.99); supported {
			ms.set(endToEnd, "latency_p99_ms", p99)
		} else {
			rec.note("latency_p99_ms omitted: %d samples leave fewer than 10 beyond it", len(lat))
		}
		ms.set(endToEnd, "server_cpu_us_per_op", float64(tm.refCPU.Microseconds())/ok)
		sort.Float64s(rss)
		if p90, supported := percentile(rss, 0.90); supported {
			ms.set(endToEnd, "server_rss_p90_mb", p90)
		} else {
			rec.note("server_rss_p90_mb omitted: %d samples leave fewer than 10 beyond it", len(rss))
		}
		ms.set(endToEnd, "exhaustive_pct", 100*float64(exhaustive)/ok)
		ms.set(endToEnd, "setup_s", median(setupS))
		rec.note("host speed %.3f of the reference; as measured: %.1f ops/s, %.1f us CPU/op",
			speed, ok/res.elapsed.Seconds(), float64(tm.cpu.Microseconds())/ok)
	} else {
		rep.layerMetrics(rec.Metrics, scrape(rec.Metrics, res, delta, after)*median(tm.speeds))
		rec.Metrics.set(perLayer, "host.speed_pct", 100*speed)
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// windowTime is the length of one timed window between calibrations.
const windowTime = time.Second

// timedRun is the timed part of a run: the closed loop in windows of
// windowTime, a calibration before the first and after each. A window's
// host speed is the mean of the calibrations around it.
type timedRun struct {
	res loadResult
	// latMs holds each answer's wall time at the reference speed, in ms,
	// in res.ok's order.
	latMs []float64
	// refSeconds and refCPU are the windows' length and the daemon's CPU
	// time in them at the reference speed; cpu is the CPU time as measured.
	refSeconds  float64
	refCPU, cpu time.Duration
	speeds      []float64
}

// timed sends the workload's timed stream for total, window by window.
// Request indices continue across windows.
func (b *bench) timed(t *traffic, d *daemon, total time.Duration) (*timedRun, error) {
	p := &poster{client: b.client, url: d.base + t.endpoint}
	tm := &timedRun{}
	speed := calibrate()
	tm.speeds = append(tm.speeds, speed)
	base := 0
	for done := time.Duration(0); done < total; done += windowTime {
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		end := time.Now().Add(min(windowTime, total-done))
		w := p.closedLoop(conns,
			func(i int) []byte { return t.body(streamTimed, base+i) },
			func(int) bool { return time.Now().Before(end) })
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		next := calibrate()
		tm.speeds = append(tm.speeds, next)
		s := (speed + next) / 2
		speed = next

		for _, smp := range w.ok {
			smp.i += base
			tm.res.ok = append(tm.res.ok, smp)
			tm.latMs = append(tm.latMs, float64(smp.wall.Nanoseconds())/1e6*s)
		}
		tm.res.attempted += w.attempted
		tm.res.failed += w.failed
		if tm.res.firstErr == nil && w.firstErr != nil {
			tm.res.firstErr = fmt.Errorf("window at request %d: %w", base, w.firstErr)
		}
		tm.res.elapsed += w.elapsed
		tm.refSeconds += w.elapsed.Seconds() * s
		tm.cpu += cpu1 - cpu0
		tm.refCPU += time.Duration(float64(cpu1-cpu0) * s)
		base += w.issued
	}
	return tm, nil
}

// warmUp runs the workload's warm-up stream against the daemon: a fixed
// number of requests, or rounds of 256 until the plan cache has turned over
// once. Every reply must be 200 and match the core.Optimize references where
// the workload has them.
func (b *bench) warmUp(t *traffic, d *daemon) error {
	p := &poster{client: b.client, url: d.base + t.endpoint}
	for from := 0; ; {
		to := t.warm
		if to == 0 {
			to = from + 256
		}
		res := p.closedLoop(conns,
			func(i int) []byte { return t.body(streamWarm, from+i) },
			func(i int) bool { return from+i < to })
		if res.failed > 0 {
			return fmt.Errorf("%d of %d requests failed (first: %v)", res.failed, res.attempted, res.firstErr)
		}
		for _, s := range res.ok {
			if k := t.shapeOf(streamWarm, from+s.i); t.coreRefs && !sameFloat(s.cost, t.pool[k].ref) {
				return fmt.Errorf("shape %d: cost %v, reference %v", k, s.cost, t.pool[k].ref)
			}
		}
		from = to
		v, err := d.vars(b.client)
		if err != nil {
			return err
		}
		if t.warmDone(from, v["blitzd_plancache_evictions_total"], v["blitzd_plancache_entries"]) {
			return nil
		}
		if from > 1<<20 {
			return errors.New("plan cache never turned over")
		}
	}
}

// verify checks the daemon's answers: opt-hot's against the set-up's
// core.Optimize references, execute's against the replay of each shape, and
// the first verifyMin of opt-cold's and opt-churn's against the replay of the
// same request indices. Mismatches count as failed requests.
func verify(t *traffic, ok []sample, rep *replayRun, rec *runRecord) error {
	var want map[int]outcome // by request index, or by shape where byShape
	// A warm-up that serves every pool shape gives an answer per shape.
	byShape := t.pool != nil && t.warm == len(t.pool)
	switch {
	case t.coreRefs:
		want = make(map[int]outcome, len(t.pool))
		for k, s := range t.pool {
			want[k] = outcome{cost: s.ref}
		}
	case byShape:
		if rep != nil {
			want = rep.warm
		} else {
			idx := make([]int, len(t.pool))
			for k := range idx {
				idx[k] = k
			}
			var err error
			if want, err = replayIndices(t, streamWarm, idx); err != nil {
				return err
			}
		}
	default:
		want = map[int]outcome{}
		if rep != nil {
			want = rep.timed
		}
		var missing []int
		for _, s := range ok[:min(len(ok), verifyMin)] {
			if _, done := want[s.i]; !done {
				missing = append(missing, s.i)
			}
		}
		more, err := replayIndices(t, streamTimed, missing)
		if err != nil {
			return err
		}
		for i, o := range more {
			want[i] = o
		}
	}

	verified, wrong := 0, 0
	for _, s := range ok {
		key := s.i
		if byShape {
			key = t.shapeOf(streamTimed, s.i)
		}
		w, found := want[key]
		if !found {
			continue
		}
		verified++
		if !sameFloat(s.cost, w.cost) || s.rows != w.rows {
			if wrong == 0 {
				rec.problem("request %d: got cost %v rows %d, want cost %v rows %d",
					s.i, s.cost, s.rows, w.cost, w.rows)
			}
			wrong++
		}
	}
	if wrong > 0 {
		rec.Failed += wrong
		rec.problem("%d of %d checked answers were wrong", wrong, verified)
	}
	if verified < min(verifyMin, len(ok)) {
		rec.problem("only %d answers checked", verified)
	}
	rec.note("%d of %d answers checked against references", verified, len(ok))
	return nil
}

// scrape sets the traced run's metrics that come from the end-to-end part:
// the daemon's handler time and the client's time outside it, and the
// daemon's plan-cache, coalescing and shedding counters over the timed
// requests. It returns the mean handler time in microseconds.
func scrape(ms metricSet, res loadResult, delta func(string) float64, after map[string]float64) float64 {
	handler := make([]float64, len(res.ok))
	outside := make([]float64, len(res.ok))
	sum := 0.0
	for i, s := range res.ok {
		handler[i] = float64(s.elapsedUS)
		outside[i] = float64(s.wall.Nanoseconds())/1e3 - float64(s.elapsedUS)
		sum += handler[i]
	}
	ms.set(perLayer, "server.handler_us", median(handler))
	ms.set(perLayer, "server.outside_handler_us", median(outside))
	lookups := delta("blitzd_plancache_hits_total") + delta("blitzd_plancache_misses_total")
	ms.set(perLayer, "plancache.hit_pct", pct(delta("blitzd_plancache_hits_total"), lookups))
	ms.set(perLayer, "plancache.evictions_per_kop", 1000*delta("blitzd_plancache_evictions_total")/float64(len(res.ok)))
	ms.set(perLayer, "plancache.resident_mb", after["blitzd_plancache_bytes"]/(1<<20))
	requests := 0.0
	for k := range after {
		if strings.HasPrefix(k, "blitzd_requests_total") {
			requests += delta(k)
		}
	}
	ms.set(perLayer, "server.coalesced_pct", pct(delta("blitzd_coalesced_total"), requests))
	ms.set(perLayer, "server.shed_pct", pct(delta("blitzd_shed_total"), requests))
	return sum / float64(len(res.ok))
}

// pct is 100·a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
