package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/workload"
)

// Endpoints the workloads drive.
const (
	optimizePath = "/v1/optimize"
	executePath  = "/v1/execute"
)

// Request streams. Every body is a pure function of (seed, stream, index), so
// request i is the same whichever connection sends it, in every run with the
// same seed, and in the in-process replay.
const (
	streamTimed uint64 = 1 + iota
	streamWarm
	streamPool
)

// churnCacheBytes is opt-churn's -cache-bytes, 2.25 MiB: a quarter of the
// 9,489,174 bytes (9.05 MiB) its whole 4096-shape pool takes when resident,
// measured with a large cache at every seed tried (see README.md). It is a
// constant, not derived from this build's entry sizes, so a change that
// shrinks entries shows up as a higher hit share instead of a smaller cache.
const churnCacheBytes = 2304 << 10

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"opt-hot", "opt-cold", "opt-churn", "execute"}

// traffic is one workload: the request stream, how the daemon is warmed up
// before timing, and the hit-share rule its timed requests must meet.
type traffic struct {
	name     string
	endpoint string
	seed     int64
	// cacheBytes is the plan-cache budget of the daemon and of the replay's
	// engines; 0 is blitzd's default.
	cacheBytes uint64
	// pool holds the workload's fixed shapes; nil for opt-cold, whose every
	// request is a new shape.
	pool []shape
	// cdf is the zipf popularity of pool shapes; nil draws them uniformly.
	cdf []float64
	// warm is the number of warm-up requests; 0 warms up until the plan cache
	// has turned over once (evictions ≥ resident entries).
	warm int
	// minHit and maxHit bound the share of timed requests served from the
	// plan cache.
	minHit, maxHit float64
	// coreRefs says answers are checked against core.Optimize references
	// computed in set-up, not against the replay.
	coreRefs bool
}

// shape is one pool query: its request body, and for opt-hot the reference
// cost core.Optimize computed for it during setup.
type shape struct {
	c    workload.Case
	body []byte
	ref  float64
}

var paperModels = cost.PaperModels()

// newTraffic builds the named workload for a seed.
func newTraffic(name string, seed int64) (*traffic, error) {
	t := &traffic{name: name, seed: seed, endpoint: optimizePath, maxHit: 1}
	rng := rand.New(rand.NewSource(int64(mix(seed, streamPool, 0) >> 1)))
	switch name {
	case "opt-hot":
		// n, extra edges and cost model cycle with the pool index, so the most
		// popular shapes cover every (n, model) pair whatever the seed.
		t.pool = make([]shape, 512)
		for k := range t.pool {
			c := workload.RandomCase(rng, 8+k%7, (k/7)%4, 1e5)
			c.Model = paperModels[k%3]
			t.pool[k] = shape{c: c, body: renderBody(c.Cards, c.Graph, c.Model.Name(), "")}
		}
		t.cdf = zipfCDF(len(t.pool), 1.2)
		t.warm = len(t.pool)
		t.minHit = 0.999
		t.coreRefs = true
	case "opt-cold":
		t.warm = 64
		t.maxHit = 0
	case "opt-churn":
		t.pool = make([]shape, 4096)
		for k := range t.pool {
			c := workload.RandomCase(rng, 9+(k/3)%4, (k/12)%4, 1e5)
			c.Model = paperModels[k%3]
			t.pool[k] = shape{c: c, body: renderBody(c.Cards, c.Graph, c.Model.Name(), "")}
		}
		t.cdf = zipfCDF(len(t.pool), 1.0)
		t.cacheBytes = churnCacheBytes
	case "execute":
		t.endpoint = executePath
		t.pool = make([]shape, 64)
		for k := range t.pool {
			c := kfkCase(rng, 6+(k/2)%5, k%2 == 1)
			c.Model = paperModels[k%3]
			tail := fmt.Sprintf(`,"seed":%d,"algorithm":"hash"`, int64(mix(seed, streamPool, k+1)>>1))
			t.pool[k] = shape{c: c, body: renderBody(c.Cards, c.Graph, c.Model.Name(), tail)}
		}
		t.warm = len(t.pool)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	return t, nil
}

// daemonArgs are the blitzd flags beyond the defaults.
func (t *traffic) daemonArgs() []string {
	if t.cacheBytes == 0 {
		return nil
	}
	return []string{"-cache-bytes", strconv.FormatUint(t.cacheBytes, 10)}
}

// shapeOf returns the pool index request i of the stream uses, or -1 for
// opt-cold.
func (t *traffic) shapeOf(stream uint64, i int) int {
	if t.pool == nil {
		return -1
	}
	if stream == streamWarm && t.warm == len(t.pool) {
		return i % len(t.pool) // a warm-up that serves the pool takes each shape in turn
	}
	u := unit(mix(t.seed, stream, i))
	if t.cdf == nil {
		return int(u * float64(len(t.pool)))
	}
	k := sort.SearchFloat64s(t.cdf, u)
	if k >= len(t.pool) {
		k = len(t.pool) - 1
	}
	return k
}

// body returns the JSON body of request i of the stream.
func (t *traffic) body(stream uint64, i int) []byte {
	if k := t.shapeOf(stream, i); k >= 0 {
		return t.pool[k].body
	}
	return coldBody(t.seed, stream, i)
}

// warmDone reports whether warm-up is complete before request i, given the
// plan cache's evictions and resident entries.
func (t *traffic) warmDone(i int, evictions, entries float64) bool {
	if t.warm > 0 {
		return i >= t.warm
	}
	return entries > 0 && evictions >= entries
}

// coldBody draws opt-cold's request i: a new n=13 shape whose topology and
// cost model cycle with i over chain, cycle+3, star, clique and random
// sparse graphs under κ0, κsm and κdnl.
func coldBody(seed int64, stream uint64, i int) []byte {
	const n = 13
	rng := rand.New(rand.NewSource(int64(mix(seed, stream, i) >> 1)))
	cards := make([]float64, n)
	for j := range cards {
		cards[j] = math.Exp(rng.Float64() * math.Log(1e5))
	}
	var pairs []joingraph.Pair
	switch i % 5 {
	case 0:
		pairs = joingraph.AppendixChainEdges(n)
	case 1:
		pairs = joingraph.AppendixCyclePlus3Edges(n)
	case 2:
		pairs = joingraph.StarEdges(n, n-1)
	case 3:
		pairs = joingraph.CliqueEdges(n)
	default:
		pairs = joingraph.RandomConnectedEdgesRand(n, rng.Intn(4), rng)
	}
	return renderBody(cards, joingraph.Build(pairs, cards), paperModels[(i/5)%3].Name(), "")
}

// kfkCase draws one execute shape: a key–foreign-key chain or star of n
// relations with 5k–20k rows each, every join's selectivity 1/max(card), so
// no intermediate result outgrows its inputs.
func kfkCase(rng *rand.Rand, n int, star bool) workload.Case {
	cards := make([]float64, n)
	for j := range cards {
		cards[j] = float64(5000 + rng.Intn(15001))
	}
	g := joingraph.New(n)
	for j := 1; j < n; j++ {
		a := j - 1
		if star {
			a = 0
		}
		g.MustAddEdge(a, j, 1/math.Max(cards[a], cards[j]))
	}
	return workload.Case{N: n, Cards: cards, Graph: g}
}

// renderBody writes a request body: relations R0…Rn−1, the join graph's
// edges, the cost model, and tail (extra fields, starting with a comma).
// Floats are written in their shortest exact form, so the daemon and the
// replay decode bit-identical queries.
func renderBody(cards []float64, g *joingraph.Graph, model, tail string) []byte {
	b := make([]byte, 0, 64+40*len(cards))
	b = append(b, `{"relations":[`...)
	for i, c := range cards {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":"R%d","cardinality":`, i)
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"joins":[`...)
	for i, e := range g.Edges() {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"a":"R%d","b":"R%d","selectivity":`, e.A, e.B)
		b = strconv.AppendFloat(b, e.Selectivity, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"model":"`...)
	b = append(b, model...)
	b = append(b, '"')
	b = append(b, tail...)
	return append(b, '}')
}

// referenceCosts runs core.Optimize on every opt-hot pool shape, on workers
// goroutines, and records the optimal costs the daemon's answers must match
// bit for bit. It optimizes the canonical relabeling of each shape, as the
// engine does: the optimum's cost is the same under any relabeling, but its
// floating-point sum can differ in the last bit.
func (t *traffic) referenceCosts(workers int) error {
	errs := make(chan error, workers)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for k := range next {
				c := t.pool[k].c
				cn, err := canon.Canonicalize(core.Query{Cards: c.Cards, Graph: c.Graph}, canon.Options{})
				var res *core.Result
				if err == nil {
					res, err = core.Optimize(cn.Query(), core.Options{Model: c.Model, DiscardTable: true})
				}
				if err != nil && first == nil {
					first = fmt.Errorf("reference for shape %d: %w", k, err)
				}
				if err == nil {
					t.pool[k].ref = res.Cost
				}
			}
			errs <- first
		}()
	}
	for k := range t.pool {
		next <- k
	}
	close(next)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// zipfCDF returns the cumulative distribution of ranks 1…n with weight
// rank^−s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// mix hashes (seed, stream, i) to 64 well-mixed bits (splitmix64 finalizer).
func mix(seed int64, stream uint64, i int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + uint64(i)*0xBF58476D1CE4E5B9
	for r := 0; r < 2; r++ {
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// unit maps 64 random bits to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
