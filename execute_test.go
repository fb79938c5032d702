package blitzsplit

import (
	"errors"
	"fmt"
	"testing"

	"blitzsplit/internal/check"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/faultinject"
)

// execChainQuery builds an n-relation chain with per-join selectivity 1/card
// so intermediate results stay flat.
func execChainQuery(t testing.TB, n int, card float64) *Query {
	t.Helper()
	q := NewQuery()
	for i := 0; i < n; i++ {
		q.MustAddRelation(fmt.Sprintf("R%d", i), card)
	}
	for i := 0; i+1 < n; i++ {
		q.MustJoin(fmt.Sprintf("R%d", i), fmt.Sprintf("R%d", i+1), 1/card)
	}
	return q
}

// skewedPair returns a query whose first join selectivity is wildly
// underestimated, plus a database synthesized from the true statistics — the
// adaptive executor's bread and butter.
func skewedPair(t testing.TB) (*Query, *Database) {
	t.Helper()
	cards := []float64{2000, 2000, 600, 600, 600}
	mk := func(firstSel float64) *Query {
		q := NewQuery()
		for i, c := range cards {
			q.MustAddRelation(fmt.Sprintf("R%d", i), c)
		}
		sels := []float64{firstSel, 1.0 / 600, 1.0 / 600, 1.0 / 600}
		for i := 0; i+1 < len(cards); i++ {
			q.MustJoin(fmt.Sprintf("R%d", i), fmt.Sprintf("R%d", i+1), sels[i])
		}
		return q
	}
	lie := mk(1.0 / 4_000_000)
	db, err := mk(1.0 / 40).Synthesize(42)
	if err != nil {
		t.Fatal(err)
	}
	return lie, db
}

// TestOptimizeAndExecute: the facade executes the optimized plan and the
// row count matches the plan-free count of the full join under every
// algorithm name.
func TestOptimizeAndExecute(t *testing.T) {
	e := New(EngineOptions{})
	q := execChainQuery(t, 6, 200)
	db, err := q.Synthesize(7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := check.CountRows(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"", "hash", "sortmerge", "nestedloops"} {
		er, err := e.OptimizeAndExecute(nil, q, db, ExecuteOptions{Algorithm: alg, CollectOps: true})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if er.Rows != want {
			t.Errorf("%q: Rows = %d, want %d", alg, er.Rows, want)
		}
		if er.Exec.Rows != er.Rows || er.Exec.Joins != 5 || len(er.Exec.Ops) == 0 {
			t.Errorf("%q: Exec = %+v", alg, er.Exec)
		}
		if er.ExecutedPlan == nil || er.Result == nil || er.Downranked {
			t.Errorf("%q: result wiring = %+v", alg, er)
		}
	}
	if got := e.Stats().Executions; got != 4 {
		t.Errorf("Executions = %d, want 4", got)
	}
}

func TestOptimizeAndExecuteErrors(t *testing.T) {
	e := New(EngineOptions{})
	q := execChainQuery(t, 3, 100)
	db, err := q.Synthesize(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OptimizeAndExecute(nil, q, nil, ExecuteOptions{}); err == nil {
		t.Error("nil database: no error")
	}
	if _, err := e.OptimizeAndExecute(nil, q, db, ExecuteOptions{Algorithm: "mergesort"}); err == nil ||
		err.Error() != `blitzsplit: unknown join algorithm "mergesort"` {
		t.Errorf("unknown algorithm: err = %v", err)
	}
	if _, err := e.OptimizeAndExecute(nil, q, db, ExecuteOptions{MaxRows: 1}); !errors.Is(err, ErrRowLimit) {
		t.Errorf("MaxRows 1: err = %v, want ErrRowLimit", err)
	}
	if got := e.Stats().Executions; got != 0 {
		t.Errorf("Executions after failures = %d, want 0", got)
	}
}

// TestOptimizeAndExecuteAdaptiveDownrank: a cached plan whose estimates lie
// triggers a mid-query replan, and the engine demotes the stale cache entry.
func TestOptimizeAndExecuteAdaptiveDownrank(t *testing.T) {
	e := New(EngineOptions{})
	lie, db := skewedPair(t)

	// Static execution under the same skew, for the intermediate-row bar.
	static, err := e.OptimizeAndExecute(nil, lie, db, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Second serve comes from the cache; adaptive execution must replan.
	er, err := e.OptimizeAndExecute(nil, lie, db, ExecuteOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !er.Cached {
		t.Fatal("second serve not cached — downrank path untested")
	}
	if len(er.Reopts) == 0 {
		t.Fatal("no reopt events despite injected skew")
	}
	replanned := false
	for _, ev := range er.Reopts {
		if ev.Replanned {
			replanned = true
		}
		if ev.Err != "" {
			t.Errorf("reopt error: %s", ev.Err)
		}
	}
	if !replanned {
		t.Fatal("reopt events recorded but none replanned")
	}
	if er.Rows != static.Rows {
		t.Errorf("adaptive Rows = %d, static = %d", er.Rows, static.Rows)
	}
	if er.Exec.IntermediateRows >= static.Exec.IntermediateRows {
		t.Errorf("adaptive intermediate rows %d, static %d — no reduction",
			er.Exec.IntermediateRows, static.Exec.IntermediateRows)
	}
	if !er.Downranked {
		t.Error("replanned cached serve not downranked")
	}
	st := e.Stats()
	if st.Reopts == 0 || st.PlanDownranks != 1 || st.Cache.Downranks != 1 {
		t.Errorf("stats = {Reopts:%d PlanDownranks:%d Cache.Downranks:%d}",
			st.Reopts, st.PlanDownranks, st.Cache.Downranks)
	}
	if err := er.ExecutedPlan.Validate(); err != nil {
		t.Errorf("executed plan invalid: %v", err)
	}
}

// TestExecutePanicQuarantine: executor panics are recovered as
// *InternalError and strike the query shape toward the same quarantine the
// optimizer uses.
func TestExecutePanicQuarantine(t *testing.T) {
	defer faultinject.Reset()
	e := New(EngineOptions{})
	q := execChainQuery(t, 4, 50)
	db, err := q.Synthesize(3)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.ExecRun, func() { panic("exec kaboom") })
	for i := 0; i < DefaultQuarantineThreshold; i++ {
		var ie *InternalError
		if _, err := e.OptimizeAndExecute(nil, q, db, ExecuteOptions{}); !errors.As(err, &ie) {
			t.Fatalf("strike %d: err = %v, want *InternalError", i+1, err)
		}
	}
	faultinject.Reset()
	// The shape is quarantined for optimization and execution alike.
	var qe *QuarantineError
	if _, err := e.Optimize(nil, q); !errors.As(err, &qe) {
		t.Fatalf("post-strikes Optimize err = %v, want *QuarantineError", err)
	}
	if got := e.Stats().PanicsRecovered; got != uint64(DefaultQuarantineThreshold) {
		t.Errorf("PanicsRecovered = %d, want %d", got, DefaultQuarantineThreshold)
	}
	// Other shapes keep executing.
	q2 := execChainQuery(t, 3, 60)
	db2, err := q2.Synthesize(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OptimizeAndExecute(nil, q2, db2, ExecuteOptions{}); err != nil {
		t.Errorf("unrelated shape after quarantine: %v", err)
	}
}

// TestPackageExecuteVectorized: the package-level Execute convenience rides
// the vectorized engine and counts the full join.
func TestPackageExecuteVectorized(t *testing.T) {
	q := execChainQuery(t, 5, 120)
	db, err := q.Synthesize(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(db, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := check.CountRows(db)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) != want {
		t.Errorf("Execute = %d, CountRows = %d", got, want)
	}
}

// TestDatabaseRelease: a released Database answers errors, not rows, from
// Execute and from OptimizeAndExecute under both drivers, and a second
// Release does nothing.
func TestDatabaseRelease(t *testing.T) {
	q := execChainQuery(t, 4, 80)
	db, err := q.Synthesize(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(db, res.Plan); err != nil {
		t.Fatal(err)
	}
	db.Release()
	db.Release()
	if rows, err := Execute(db, res.Plan); !errors.Is(err, engine.ErrReleased) || rows != 0 {
		t.Errorf("Execute on a released database = %d, %v; want 0, ErrReleased", rows, err)
	}
	eng := New(EngineOptions{})
	for _, adaptive := range []bool{false, true} {
		if er, err := eng.OptimizeAndExecute(nil, q, db, ExecuteOptions{Adaptive: adaptive}); !errors.Is(err, engine.ErrReleased) || er != nil {
			t.Errorf("OptimizeAndExecute (adaptive %v) on a released database = %+v, %v; want ErrReleased", adaptive, er, err)
		}
	}
}
