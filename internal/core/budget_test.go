package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/joingraph"
)

// budgetChainQuery builds an n-relation chain query (the paper's hardest
// realistic topology for large n) on the standard cardinality ladder.
func budgetChainQuery(n int) Query {
	cards := joingraph.CardinalityLadder(n, 464, 0.5)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return Query{Cards: cards, Graph: joingraph.Build(joingraph.ChainEdges(order), cards)}
}

// TestTableFootprintExact pins the admission formula to the table layout:
// card plus the 16-byte (cost, bestLHS) slot always, fan only with a graph,
// memo only for memoizing models.
func TestTableFootprintExact(t *testing.T) {
	cases := []struct {
		n        int
		hasGraph bool
		model    cost.Model
		want     uint64
	}{
		{10, false, cost.Naive{}, 24 << 10},     // card + (cost, bestLHS) slot
		{10, true, cost.Naive{}, 32 << 10},      // + fan
		{10, true, cost.SortMerge{}, 40 << 10},  // + memo (κsm memoizes)
		{10, false, cost.SortMerge{}, 32 << 10}, // memo without fan
		{10, false, nil, 24 << 10},              // nil model defaults to naive
		{1, false, cost.Naive{}, 48},
		{22, true, cost.SortMerge{}, 40 << 22},
	}
	for _, c := range cases {
		if got := TableFootprint(c.n, c.hasGraph, c.model); got != c.want {
			t.Errorf("TableFootprint(%d, %v, %v) = %d, want %d", c.n, c.hasGraph, c.model, got, c.want)
		}
	}
}

// TestMemoryAdmissionRejectsBeforeAllocating: a budget one byte below the
// exact footprint is refused with a typed admission error carrying both
// sizes; a budget exactly at the footprint is admitted and optimizes
// normally.
func TestMemoryAdmissionRejectsBeforeAllocating(t *testing.T) {
	q := budgetChainQuery(12)
	fp := TableFootprint(12, true, cost.SortMerge{})
	opts := Options{Model: cost.SortMerge{}, MemoryBudget: fp - 1}
	res, err := Optimize(q, opts)
	if res != nil {
		t.Fatal("rejected run returned a result")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Phase != PhaseAdmission || be.Footprint != fp || be.Budget != fp-1 {
		t.Fatalf("admission error = %+v, want phase %q footprint %d budget %d",
			be, PhaseAdmission, fp, fp-1)
	}
	if be.SubsetsFilled != 0 || be.Elapsed != 0 {
		t.Fatalf("admission rejection reports progress: %+v", be)
	}
	// Deadline sentinels must not match an admission rejection.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("admission error matches a context sentinel: %v", err)
	}

	opts.MemoryBudget = fp
	ok, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("budget == footprint refused: %v", err)
	}
	ref, err := Optimize(q, Options{Model: cost.SortMerge{}})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Cost != ref.Cost || !samePlan(ok.Plan, ref.Plan) {
		t.Fatal("admitted run diverges from unbudgeted run")
	}
}

// TestPreCancelledContext: an already-dead context returns promptly (no
// table work) with an error matching both ErrBudgetExceeded and
// context.Canceled.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Optimize(budgetChainQuery(18), Options{Ctx: ctx})
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudgetExceeded ∧ context.Canceled", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Phase != PhaseProperties || be.SubsetsFilled != 0 {
		t.Fatalf("pre-cancelled error = %+v, want untouched properties phase", be)
	}
	if elapsed > time.Second {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

// TestDeadlineStopsFill: a deadline far shorter than the n=18 fill stops
// both the serial and the parallel schedule cooperatively, well before the
// full 3^18 split loop could finish, with a deadline-typed fill error.
func TestDeadlineStopsFill(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	q := budgetChainQuery(18)
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		res, err := Optimize(q, Options{Ctx: ctx, Parallelism: workers})
		elapsed := time.Since(start)
		cancel()
		if res != nil {
			t.Fatalf("workers=%d: budget-stopped run returned a result", workers)
		}
		if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded ∧ DeadlineExceeded", workers, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %T, want *BudgetError", workers, err)
		}
		if be.Phase != PhaseProperties && be.Phase != PhaseFill {
			t.Fatalf("workers=%d: phase = %q", workers, be.Phase)
		}
		// The check stride bounds the overshoot to a few thousand split
		// loops; anything near the full fill (seconds) means the stop never
		// took. The wide margin absorbs CI scheduling noise only.
		if elapsed > 2*time.Second {
			t.Fatalf("workers=%d: stop took %v", workers, elapsed)
		}
	}
}

// TestNoGoroutineLeakAfterCancellation hammers budget-stopped parallel runs
// and then requires the goroutine count to settle back to its baseline:
// neither fill workers nor budget watchers may outlive the run.
func TestNoGoroutineLeakAfterCancellation(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	q := budgetChainQuery(16)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if _, err := Optimize(q, Options{Ctx: ctx, Parallelism: 4}); err == nil {
			// A 1 ms budget occasionally suffices on a fast machine — fine;
			// the run must just not leak either way.
			t.Logf("iteration %d finished inside the budget", i)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A couple of runtime-internal goroutines (timer scavenger etc.) can
		// come and go; allow a small cushion above the baseline.
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTableReusableAfterBudgetStop: a Table abandoned mid-fill by a budget
// stop goes back to the arena and must be safely resettable — the next run,
// which reuses that very table, has to be bit-identical to a fresh-table run.
func TestTableReusableAfterBudgetStop(t *testing.T) {
	defer faultinject.Reset()
	q := budgetChainQuery(14)
	arena := NewArena(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at the eighth of the fill's sixteen checkpoint strides, so half
	// the cost slots hold this run's values when it stops. Yielding at each
	// later stride lets the budget watcher observe the cancellation before
	// the fill can finish.
	strides := 0
	faultinject.Set(faultinject.CoreFillLayer, func() {
		if strides++; strides == 8 {
			cancel()
		}
		if strides >= 8 {
			runtime.Gosched()
		}
	})
	_, err := Optimize(q, Options{Ctx: ctx, Arena: arena})
	var be *BudgetError
	if !errors.As(err, &be) || be.Phase != PhaseFill {
		t.Fatalf("err = %v, want a *BudgetError in the fill phase", err)
	}
	faultinject.Reset()
	if st := arena.Stats(); st.Live != 0 || st.PooledTables != 1 {
		t.Fatalf("after the budget stop: %+v, want the table back in the pool", st)
	}

	reused, err := Optimize(q, Options{Arena: arena})
	if err != nil {
		t.Fatalf("reuse after budget stop: %v", err)
	}
	defer arena.Put(reused.Table)
	if got := arena.Stats().Reuses; got != 1 {
		t.Fatalf("arena reuses = %d, want 1: the second run did not reuse the stopped table", got)
	}
	fresh, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reused.Cost != fresh.Cost || reused.Cardinality != fresh.Cardinality ||
		!samePlan(reused.Plan, fresh.Plan) || !reflect.DeepEqual(reused.Counters, fresh.Counters) {
		t.Fatal("table reused after a budget stop diverges from a fresh table")
	}
}

// TestParallelismClampedToGOMAXPROCS: absurd worker counts are clamped to
// the scheduler's capacity, and the clamped run stays bit-identical to the
// serial fill — plan, cost, cardinality and merged counters.
func TestParallelismClampedToGOMAXPROCS(t *testing.T) {
	if got, want := (Options{Parallelism: 1 << 20}).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Options{Parallelism: -3}).workers(); got != 0 {
		t.Fatalf("workers() = %d for negative parallelism, want 0 (serial)", got)
	}
	q := budgetChainQuery(10)
	serial, err := Optimize(q, Options{Model: cost.SortMerge{}})
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := Optimize(q, Options{Model: cost.SortMerge{}, Parallelism: 64})
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Cost != serial.Cost || clamped.Cardinality != serial.Cardinality {
		t.Fatalf("clamped fill cost %v/%v, serial %v/%v",
			clamped.Cost, clamped.Cardinality, serial.Cost, serial.Cardinality)
	}
	if !samePlan(clamped.Plan, serial.Plan) {
		t.Fatal("clamped fill plan differs from serial")
	}
	if !reflect.DeepEqual(clamped.Counters, serial.Counters) {
		t.Fatalf("clamped counters %+v, serial %+v", clamped.Counters, serial.Counters)
	}
}

// TestThresholdEscalatesToUnthresholdedFinalPass: an initial threshold no
// plan can meet must escalate pass by pass and finish on the unthresholded
// final pass with the true optimum — never a spurious ErrNoPlan.
func TestThresholdEscalatesToUnthresholdedFinalPass(t *testing.T) {
	q := budgetChainQuery(8)
	ref, err := Optimize(q, Options{Model: cost.SortMerge{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(q, Options{Model: cost.SortMerge{}, CostThreshold: math.SmallestNonzeroFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != ref.Cost || !samePlan(res.Plan, ref.Plan) {
		t.Fatal("escalated result differs from unthresholded optimum")
	}
	// Growth ×1000 from 5e-324 cannot reach the limit before the last pass.
	if res.Counters.Passes != maxPasses {
		t.Fatalf("Passes = %d, want %d", res.Counters.Passes, maxPasses)
	}
}

// TestCCPMemoryAdmissionCoversRetained: under EnumeratorCCP the admission
// footprint counts what the CCP fill keeps beyond the blitz table, so a
// budget equal to it is admitted, one byte less is refused, and a fresh
// table retains no more than the footprint plus the chunk-start and
// worker-counter scratch.
func TestCCPMemoryAdmissionCoversRetained(t *testing.T) {
	const n = 12
	cards := joingraph.CardinalityLadder(n, 1000, 0.8)
	for _, topo := range []struct {
		name  string
		edges []joingraph.Pair
	}{
		{"clique", joingraph.CliqueEdges(n)},
		{"star", joingraph.StarEdges(n, 0)},
	} {
		q := Query{Cards: cards, Graph: joingraph.Build(topo.edges, cards)}
		for _, par := range []int{0, 2} {
			fp := TableFootprint(n, true, cost.Naive{}) + CCPFootprint(n, par > 0)
			opts := Options{Enumerator: EnumeratorCCP, Parallelism: par, MemoryBudget: fp - 1}
			var be *BudgetError
			if _, err := Optimize(q, opts); !errors.As(err, &be) || be.Phase != PhaseAdmission {
				t.Fatalf("%s/par=%d: budget below the footprint: err = %v, want an admission refusal", topo.name, par, err)
			}
			opts.MemoryBudget = fp
			res, err := Optimize(q, opts)
			if err != nil {
				t.Fatalf("%s/par=%d: budget == footprint refused: %v", topo.name, par, err)
			}
			tbl := res.Table
			scratch := uint64(cap(tbl.chunks))*8 + uint64(cap(tbl.workers))*uint64(unsafe.Sizeof(paddedCounters{}))
			if got := tbl.RetainedBytes(); got > fp+scratch {
				t.Errorf("%s/par=%d: retains %d B, admitted %d B + %d B scratch", topo.name, par, got, fp, scratch)
			}
		}
	}
}
