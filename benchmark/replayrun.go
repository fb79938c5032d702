package main

import (
	"fmt"
	"math"
	"time"
)

// replayRun is the traced replay: the workload's warm-up stream and then
// its timed stream, each request handled by three passes against their own
// engine state — A plain, B with a span around each layer call, C with
// Engine.Optimize broken into its steps. A and B run the same code, so the
// difference of their wall times is the tracing overhead.
type replayRun struct {
	warm, timed map[int]outcome // pass A's answers by request index
	trB, trC    *tracer
	c           *handler
	// aNs and bNs are the wall times of passes A and B over the timed
	// requests; timedReqs counts those requests.
	aNs, bNs  int64
	timedReqs int
	// speed is the host's speed during the replay (calib.go).
	speed float64
}

// replayBlock is how many requests one pass handles before the next pass
// takes the same requests. A and B alternate which goes first.
const replayBlock = 16

// replayTraced replays the workload in process for budget of timed requests
// (or until a span buffer fills), after the full warm-up.
func replayTraced(t *traffic, budget time.Duration) (*replayRun, error) {
	rr := &replayRun{
		warm:  map[int]outcome{},
		timed: map[int]outcome{},
		trB:   newTracer(spanCap),
		trC:   newTracer(spanCap),
	}
	rr.trC.origin = rr.trB.origin // one clock for both passes' spans
	rr.c = newMirrorHandler(t, rr.trC)
	hs := [3]*handler{newEngineHandler(newEngine(t), nil), newEngineHandler(newEngine(t), rr.trB), rr.c}

	for i := 0; ; i++ {
		if ev, en := hs[0].cacheState(); t.warmDone(i, ev, en) {
			break
		}
		if i > 1<<20 {
			return nil, fmt.Errorf("%s replay: plan cache never turned over", t.name)
		}
		body := t.body(streamWarm, i)
		var outs [3]outcome
		for p, h := range hs {
			o, err := h.serve(t.endpoint, body, -1-i)
			if err != nil {
				return nil, fmt.Errorf("%s replay warm-up %d pass %c: %w", t.name, i, 'A'+p, err)
			}
			outs[p] = o
		}
		if err := agree(outs); err != nil {
			return nil, fmt.Errorf("%s replay warm-up %d: %w", t.name, i, err)
		}
		rr.warm[i] = outs[0]
	}

	start := time.Now()
	for lo := 0; time.Since(start) < budget && !rr.trB.full() && !rr.trC.full(); lo += replayBlock {
		var bodies [replayBlock][]byte
		for j := range bodies {
			bodies[j] = t.body(streamTimed, lo+j)
		}
		order := [2]int{0, 1}
		if (lo/replayBlock)%2 == 1 {
			order = [2]int{1, 0}
		}
		var outs [replayBlock][3]outcome
		for _, p := range append(order[:], 2) {
			t0 := time.Now()
			for j, body := range bodies {
				o, err := hs[p].serve(t.endpoint, body, lo+j)
				if err != nil {
					return nil, fmt.Errorf("%s replay request %d pass %c: %w", t.name, lo+j, 'A'+p, err)
				}
				outs[j][p] = o
			}
			switch p {
			case 0:
				rr.aNs += time.Since(t0).Nanoseconds()
			case 1:
				rr.bNs += time.Since(t0).Nanoseconds()
			}
		}
		for j := range outs {
			if err := agree(outs[j]); err != nil {
				return nil, fmt.Errorf("%s replay request %d: %w", t.name, lo+j, err)
			}
			rr.timed[lo+j] = outs[j][0]
		}
		rr.timedReqs += replayBlock
	}
	if rr.timedReqs == 0 {
		return nil, fmt.Errorf("%s replay: no timed request fit in the span buffers", t.name)
	}
	return rr, nil
}

// agree checks that the three passes gave the same answer.
func agree(outs [3]outcome) error {
	for p := 1; p < 3; p++ {
		if !sameFloat(outs[p].cost, outs[0].cost) || outs[p].rows != outs[0].rows {
			return fmt.Errorf("pass %c answered cost %v rows %d, pass A cost %v rows %d",
				'A'+p, outs[p].cost, outs[p].rows, outs[0].cost, outs[0].rows)
		}
	}
	return nil
}

// replayIndices answers the given requests of a stream in process, through
// one engine shared by conns workers, the way the daemon would.
func replayIndices(t *traffic, stream uint64, idx []int) (map[int]outcome, error) {
	eng := newEngine(t)
	type answer struct {
		i   int
		o   outcome
		err error
	}
	jobs := make(chan int)
	answers := make(chan answer)
	for w := 0; w < conns; w++ {
		go func() {
			h := newEngineHandler(eng, nil)
			for i := range jobs {
				o, err := h.serve(t.endpoint, t.body(stream, i), i)
				answers <- answer{i, o, err}
			}
		}()
	}
	go func() {
		for _, i := range idx {
			jobs <- i
		}
		close(jobs)
	}()
	out := make(map[int]outcome, len(idx))
	var first error
	for range idx {
		a := <-answers
		if a.err != nil && first == nil {
			first = fmt.Errorf("%s replay of request %d: %w", t.name, a.i, a.err)
		}
		out[a.i] = a.o
	}
	return out, first
}

// layerMetrics sets the per-layer metrics the replay measures; handlerUS is
// the daemon's mean handler time over the same workload, at the reference
// host speed.
func (rr *replayRun) layerMetrics(ms metricSet, handlerUS float64) {
	var b, c layerTotals
	b.add(rr.trB.spans)
	c.add(rr.trC.spans)
	perCall := func(lts []*layerTotals, n spanName) float64 {
		var ns int64
		calls := 0
		for _, lt := range lts {
			ns += lt.selfNs[n]
			calls += lt.calls[n]
		}
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls) / 1e3
	}
	B, C, BC := []*layerTotals{&b}, []*layerTotals{&c}, []*layerTotals{&b, &c}
	for _, l := range []struct {
		name string
		lts  []*layerTotals
		span spanName
	}{
		{"server.decode_us", B, spanDecode},
		{"spec.validate_us", B, spanValidate},
		{"spec.query_us", B, spanSpecQuery},
		{"blitzsplit.query_build_us", B, spanQueryBuild},
		{"canon.canonicalize_us", BC, spanCanonicalize},
		{"blitzsplit.optimize_us", B, spanOptimize},
		{"server.encode_us", B, spanEncode},
		{"blitzsplit.rebuild_us", C, spanRebuild},
		{"canon.relabel_us", C, spanRelabel},
		{"plancache.probe_us", C, spanProbe},
		{"plancache.put_us", C, spanPut},
		{"core.fill_us", C, spanFill},
		{"engine.synth_us", C, spanSynth},
		{"exec.run_us", C, spanExecRun},
	} {
		ms.set(perLayer, l.name, perCall(l.lts, l.span))
	}

	// The engine steps cover what pass C's optimize spans spent in their
	// children; the rest of Engine.Optimize's time in pass B is unaccounted.
	covered := float64(wallNs(rr.trC.spans, spanOptimize) - c.selfNs[spanOptimize])
	ms.set(perLayer, "blitzsplit.unaccounted_pct", 100*(1-covered/float64(wallNs(rr.trB.spans, spanOptimize))))

	var loops, kpp, cond, subsets, fillNs float64
	byModel := map[string][]fillSample{}
	for _, f := range rr.trC.fills {
		loops += float64(f.counters.LoopIters)
		kpp += float64(f.counters.KppEvals)
		cond += float64(f.counters.CondHits)
		subsets += float64(f.counters.SubsetsVisited)
		fillNs += float64(f.ns)
		byModel[f.model] = append(byModel[f.model], f)
	}
	fills := float64(len(rr.trC.fills))
	ms.set(perLayer, "core.loop_iters_per_op", ratio(loops, fills))
	ms.set(perLayer, "core.kpp_evals_per_op", ratio(kpp, fills))
	ms.set(perLayer, "core.cond_hits_per_op", ratio(cond, fills))
	ms.set(perLayer, "core.subsets_per_op", ratio(subsets, fills))
	ms.set(perLayer, "core.ns_per_loop_iter", ratio(fillNs, loops))
	for _, m := range modelNames {
		f, _ := fitFormula3(byModel[m])
		ms.set(perLayer, "core.t_loop_ns."+m, f.tLoop)
		ms.set(perLayer, "core.t_cond_ns."+m, f.tCond)
		ms.set(perLayer, "core.t_subset_ns."+m, f.tSubset)
		ms.set(perLayer, "core.formula3_err_pct."+m, f.errPct)
	}

	h := rr.c
	ms.set(perLayer, "engine.synth_rows_per_s", ratio(float64(h.synthRows), float64(h.synthNs)/1e9))
	ms.set(perLayer, "exec.rows_processed_per_s", ratio(float64(h.rowsProcessed), float64(h.execNs)/1e9))
	ms.set(perLayer, "exec.intermediate_rows_per_op", ratio(float64(h.intermediateRows), float64(h.execs)))
	ms.set(perLayer, "exec.join_us", ratio(float64(h.joinNs)/1e3, float64(h.execs)))

	ms.set(perLayer, "trace.overhead_pct", 100*float64(rr.bNs-rr.aNs)/float64(rr.aNs))
	requestUS := float64(wallNs(rr.trB.spans, spanRequest)) / float64(rr.timedReqs) / 1e3 * rr.speed
	ms.set(perLayer, "trace.coverage_pct", ratio(100*requestUS, handlerUS))
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
