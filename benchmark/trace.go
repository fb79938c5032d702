package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"blitzsplit/internal/core"
)

// spanName names the layer call a span times. Each is the package and
// function the replay calls, in the order internal/server calls them.
type spanName uint8

const (
	spanRequest      spanName = iota // one replayed request: the root span
	spanDecode                       // json.Unmarshal into the request type
	spanValidate                     // spec.File.Validate and the server's limits
	spanSpecQuery                    // spec.File.Query
	spanQueryBuild                   // blitzsplit NewQuery, AddRelation, Join
	spanCanonicalize                 // canon.Canonicalizer.Canonicalize
	spanSynthesize                   // blitzsplit.Query.Synthesize
	spanOptimize                     // Engine.Optimize (OptimizeAndExecute on execute)
	spanEncode                       // response assembly and JSON encode
	spanRebuild                      // the engine's rebuild of the core query
	spanProbe                        // plancache.Cache.GetBytes
	spanFill                         // core.Optimize with arena and deadline
	spanPut                          // plancache.Cache.Put
	spanRelabel                      // canon.RelabelPlan
	spanSynth                        // engine.Synthesize
	spanExecRun                      // exec.Run
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"server.request", "server.decode", "spec.validate", "spec.query",
	"blitzsplit.query_build", "canon.canonicalize", "blitzsplit.synthesize",
	"blitzsplit.optimize", "server.encode", "blitzsplit.rebuild",
	"plancache.probe", "core.fill", "plancache.put", "canon.relabel",
	"engine.synthesize", "exec.run",
}

// span is one timed call. Times are nanoseconds since the tracer's origin;
// parent indexes the tracer's spans (-1 for a root); req is the request
// index, negative for warm-up requests (−1 − warm-up index).
type span struct {
	start, end int64
	req        int32
	parent     int32
	name       spanName
}

// fillSample is one traced DP fill: its cost model, exact counters and
// duration, the inputs of the formula (3) fit.
type fillSample struct {
	model    string
	counters core.Counters
	ns       int64
}

// tracer keeps spans in memory, in a buffer sized up front so recording
// never allocates while it is timing. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
	fills  []fillSample
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name spanName, parent int32, req int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), req: int32(req), parent: parent, name: name, end: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
}

// fill records the counters of the fill timed by span id.
func (t *tracer) fill(id int32, model string, c core.Counters) {
	if t == nil {
		return
	}
	s := t.spans[id]
	t.fills = append(t.fills, fillSample{model: model, counters: c, ns: s.end - s.start})
}

// full reports whether the buffer is too close to capacity for another
// request's spans.
func (t *tracer) full() bool { return len(t.spans)+64 > cap(t.spans) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children are counted
// once, and a child sticking out of its parent only counts inside it.
func selfTimes(spans []span) []int64 {
	first := make([]int32, len(spans))
	next := make([]int32, len(spans))
	for i := range first {
		first[i] = -1
	}
	for i := len(spans) - 1; i >= 0; i-- {
		if p := spans[i].parent; p >= 0 {
			next[i] = first[p]
			first[p] = int32(i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for c := first[i]; c >= 0; c = next[c] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		covered, reach := int64(0), s.start
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums self time and counts calls per span name over the timed
// requests (req ≥ 0).
type layerTotals struct {
	selfNs [numSpanNames]int64
	calls  [numSpanNames]int
}

func (lt *layerTotals) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.req < 0 {
			continue
		}
		lt.selfNs[s.name] += self[i]
		lt.calls[s.name]++
	}
}

// wallNs sums the duration of the named spans over timed requests.
func wallNs(spans []span, name spanName) int64 {
	var total int64
	for _, s := range spans {
		if s.req >= 0 && s.name == name {
			total += s.end - s.start
		}
	}
	return total
}

// writeSpans writes the spans of each pass as one JSON object per line.
func writeSpans(path string, passes map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Pass    string `json:"pass"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	names := make([]string, 0, len(passes))
	for p := range passes {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		for i, s := range passes[p].spans {
			if err := enc.Encode(line{p, i, s.parent, s.req, spanNames[s.name], s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
