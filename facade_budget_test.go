package blitzsplit

// Tests for the facade's resource governance: WithTimeout / WithContext /
// WithMemoryBudget and the WithDeadlineLadder degradation ladder. Rung
// transitions are made deterministic with internal/faultinject hooks; the
// only wall-clock assertions are the acceptance bound on the n=22 chain and
// generous anti-hang ceilings.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/faultinject"
)

// ladderChain builds an n-relation chain query with cardinalities large
// enough that plans differ in cost.
func ladderChain(n int) *Query {
	q := NewQuery()
	for i := 0; i < n; i++ {
		q.MustAddRelation(fmt.Sprintf("T%d", i), float64(100+13*i))
	}
	for i := 1; i < n; i++ {
		q.MustJoin(fmt.Sprintf("T%d", i-1), fmt.Sprintf("T%d", i), 0.01)
	}
	return q
}

// countRungs registers a FacadeRung counter for the test's duration.
func countRungs(t *testing.T) *atomic.Int32 {
	t.Helper()
	var n atomic.Int32
	faultinject.Set(faultinject.FacadeRung, func() { n.Add(1) })
	t.Cleanup(faultinject.Reset)
	return &n
}

// requireVerified fails unless the result passes the full correctness audit
// — the ladder's contract is that every rung's plan does.
func requireVerified(t *testing.T, res *Result) {
	t.Helper()
	if res == nil || res.Plan == nil {
		t.Fatal("no result")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestLadderMemoryBudgetFallsToIDP: a memory budget the 2^n table cannot fit
// refuses the exhaustive rung at admission and lands on IDP,
// deterministically — no clocks involved.
func TestLadderMemoryBudgetFallsToIDP(t *testing.T) {
	rungs := countRungs(t)
	res, err := ladderChain(10).Optimize(WithMemoryBudget(1024), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeIDP || !res.Degraded {
		t.Fatalf("mode = %q degraded = %v, want %q degraded", res.Mode, res.Degraded, ModeIDP)
	}
	if got := rungs.Load(); got != 2 { // exhaustive (refused at admission) + IDP
		t.Fatalf("rungs attempted = %d, want 2", got)
	}
	requireVerified(t, res)
	if res.Plan.Set != bitset.Full(10) {
		t.Fatalf("plan covers %v, want all 10 relations", res.Plan.Set)
	}
}

// TestLadderLargeNStaysInBudget: a memory-refused ladder answers n = 22,
// 26 and 30 chains inside its memory budget and within twice its deadline.
// The exhaustive rungs are refused at admission, and the IDP rung's tables
// hold only the subsets of at most K units (17.6 MiB at n = 30), with its
// context checked every 1024 subsets.
func TestLadderLargeNStaysInBudget(t *testing.T) {
	const budget = 64 << 20
	const deadline = 50 * time.Millisecond
	for _, n := range []int{22, 26, 30} {
		q := ladderChain(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := q.Optimize(WithMemoryBudget(budget), WithTimeout(deadline), WithDeadlineLadder())
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("n=%d: mode %s after %v, %.1f MiB allocated", n, res.Mode, elapsed, float64(alloc)/(1<<20))
		if alloc > budget {
			t.Errorf("n=%d: allocated %.1f MiB, budget %d MiB", n, float64(alloc)/(1<<20), budget>>20)
		}
		if elapsed > 2*deadline {
			t.Errorf("n=%d: answered after %v, deadline %v", n, elapsed, deadline)
		}
		requireVerified(t, res)
	}
}

// TestLadderWithoutBudgetStaysInArena: a ladder with no WithMemoryBudget is
// admitted against the engine arena's capacity (256 MiB by default), so
// chains whose 2^n tables need 512 MiB (n = 24) and 2 GiB (n = 26) answer
// from the lower rungs without allocating those tables, inside twice the
// deadline.
func TestLadderWithoutBudgetStaysInArena(t *testing.T) {
	const limit = 64 << 20
	const deadline = 50 * time.Millisecond
	for _, n := range []int{24, 26} {
		q := ladderChain(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := q.Optimize(WithTimeout(deadline), WithDeadlineLadder())
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("n=%d: mode %s after %v, %.1f MiB allocated", n, res.Mode, elapsed, float64(alloc)/(1<<20))
		if alloc > limit {
			t.Errorf("n=%d: allocated %.1f MiB, want ≤ %d MiB", n, float64(alloc)/(1<<20), limit>>20)
		}
		if elapsed > 2*deadline {
			t.Errorf("n=%d: answered after %v, deadline %v", n, elapsed, deadline)
		}
		requireVerified(t, res)
	}
}

// TestLadderArenaCapacityGatesTable is the clock-free twin of
// TestLadderWithoutBudgetStaysInArena: on an engine whose arena holds 1 MiB,
// a 16-chain's 2 MiB table is refused under the ladder, which answers from
// IDP; without the ladder nothing is admitted and the same engine answers
// exhaustively.
func TestLadderArenaCapacityGatesTable(t *testing.T) {
	e := New(EngineOptions{ArenaBytes: 1 << 20})
	res, err := e.Optimize(nil, ladderChain(16), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeIDP {
		t.Fatalf("ladder mode = %q, want %q", res.Mode, ModeIDP)
	}
	requireVerified(t, res)
	res, err = e.Optimize(nil, ladderChain(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExhaustive {
		t.Fatalf("mode without the ladder = %q, want %q", res.Mode, ModeExhaustive)
	}
}

// TestLadderWithoutLadderMemoryBudgetFails: the same budget without
// WithDeadlineLadder is a hard typed failure.
func TestLadderWithoutLadderMemoryBudgetFails(t *testing.T) {
	res, err := ladderChain(10).Optimize(WithMemoryBudget(1024))
	if res != nil {
		t.Fatal("rejected run returned a result")
	}
	var be *BudgetError
	if !errors.Is(err, ErrBudgetExceeded) || !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError wrapping ErrBudgetExceeded", err)
	}
	if be.Budget != 1024 || be.Footprint == 0 {
		t.Fatalf("budget error = %+v", be)
	}
}

// TestLadderExpiredDeadlineFallsToGreedy: a deadline that is already spent
// when every timed rung starts leaves only the greedy floor, which needs no
// budget at all.
func TestLadderExpiredDeadlineFallsToGreedy(t *testing.T) {
	rungs := countRungs(t)
	res, err := ladderChain(12).Optimize(WithTimeout(time.Nanosecond), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeGreedy || !res.Degraded {
		t.Fatalf("mode = %q degraded = %v, want %q degraded", res.Mode, res.Degraded, ModeGreedy)
	}
	// Exhaustive is attempted (and stopped), IDP is skipped outright with
	// the deadline gone, greedy closes.
	if got := rungs.Load(); got != 2 {
		t.Fatalf("rungs attempted = %d, want 2", got)
	}
	requireVerified(t, res)
	if !res.Plan.IsLeftDeep() {
		t.Fatal("greedy rung produced a non-left-deep plan")
	}
}

// TestLadderSeededRung: the ladder's exhaustive rung runs under the greedy
// plan's §6.4 threshold whenever that plan lies in the searched space. Its
// answer is the unladdered optimum, bit for bit, found in one pruned pass;
// under CCP, a star whose greedy plan uses a Cartesian product lies outside
// the product-free space and runs unseeded.
func TestLadderSeededRung(t *testing.T) {
	ref, err := ladderChain(12).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ladderChain(12).Optimize(WithTimeout(time.Minute), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExhaustive || res.Degraded {
		t.Fatalf("mode = %q degraded = %v, want clean exhaustive", res.Mode, res.Degraded)
	}
	if math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) || !res.Plan.Equal(ref.Plan) {
		t.Fatalf("seeded ladder answered cost %v plan %v, unladdered %v plan %v",
			res.Cost, res.Plan, ref.Cost, ref.Plan)
	}
	if res.Counters.Passes != 1 || res.Counters.ThresholdSkips == 0 {
		t.Fatalf("counters %+v, want one pass with threshold skips", res.Counters)
	}
	if res.Counters.LoopIters >= ref.Counters.LoopIters {
		t.Fatalf("seeded pass ran %d split loops, unseeded %d", res.Counters.LoopIters, ref.Counters.LoopIters)
	}
	requireVerified(t, res)

	// Tiny satellites around a huge hub: greedy multiplies two satellites
	// before touching the hub, a product CCP never considers.
	star := NewQuery()
	star.MustAddRelation("hub", 1e6)
	for i := 1; i < 8; i++ {
		star.MustAddRelation(fmt.Sprintf("S%d", i), float64(10+i))
		star.MustJoin("hub", fmt.Sprintf("S%d", i), 1e-4)
	}
	ref, err = star.Optimize(WithEnumerator(EnumeratorCCP))
	if err != nil {
		t.Fatal(err)
	}
	res, err = star.Optimize(WithEnumerator(EnumeratorCCP), WithTimeout(time.Minute), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExhaustive || math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) {
		t.Fatalf("ccp star: mode %q cost %v, want exhaustive cost %v", res.Mode, res.Cost, ref.Cost)
	}
	if res.Counters.ThresholdSkips != 0 || res.Counters.Passes != 1 {
		t.Fatalf("ccp star counters %+v, want an unseeded single pass", res.Counters)
	}
}

// TestLadderExplicitCancelAborts: cancellation — unlike a deadline — means
// the caller wants out; the ladder must not degrade past it.
func TestLadderExplicitCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ladderChain(10).Optimize(WithContext(ctx), WithDeadlineLadder())
	if res != nil {
		t.Fatal("cancelled ladder returned a result")
	}
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudgetExceeded ∧ context.Canceled", err)
	}
}

// TestDeadlineLadderAcceptance is the PR's acceptance scenario: a 50 ms
// deadline on an n=22 chain query — far beyond exhaustive reach in that
// budget — must come back promptly with a verified degraded plan.
func TestDeadlineLadderAcceptance(t *testing.T) {
	const deadline = 50 * time.Millisecond
	q := ladderChain(22)
	start := time.Now()
	res, err := q.Optimize(WithTimeout(deadline), WithDeadlineLadder())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// The rung slices sum to under the deadline and each stop reacts within
	// a ~1024-subset stride, so the logical bound is ~2× the deadline; the
	// rest of the margin absorbs CI scheduling and allocation noise.
	if elapsed > 10*deadline {
		t.Fatalf("returned in %v, want ≈%v", elapsed, deadline)
	}
	if !res.Degraded || res.Mode == ModeExhaustive {
		t.Fatalf("mode = %q degraded = %v, want a degraded rung", res.Mode, res.Degraded)
	}
	requireVerified(t, res)
	if res.Plan.Set != bitset.Full(22) {
		t.Fatalf("plan covers %v, want all 22 relations", res.Plan.Set)
	}
}

// TestDeadlineWithoutLadderFailsTyped: the same hopeless deadline without
// the ladder is a prompt, typed failure — never a hang.
func TestDeadlineWithoutLadderFailsTyped(t *testing.T) {
	const deadline = 50 * time.Millisecond
	start := time.Now()
	res, err := ladderChain(22).Optimize(WithTimeout(deadline))
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("budget-stopped run returned a result")
	}
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded ∧ DeadlineExceeded", err)
	}
	if elapsed > 10*deadline {
		t.Fatalf("failure took %v, want ≈%v", elapsed, deadline)
	}
}

// TestLadderSmallQueryStaysExhaustive: with a roomy budget the ladder's
// first rung wins and nothing is degraded.
func TestLadderSmallQueryStaysExhaustive(t *testing.T) {
	ref, err := ladderChain(8).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ladderChain(8).Optimize(WithTimeout(time.Minute), WithDeadlineLadder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExhaustive || res.Degraded {
		t.Fatalf("mode = %q degraded = %v, want clean exhaustive", res.Mode, res.Degraded)
	}
	if res.Cost != ref.Cost {
		t.Fatalf("ladder cost %v, plain cost %v", res.Cost, ref.Cost)
	}
	requireVerified(t, res)
}

// TestOptionValidation: budget options reject nonsense inputs.
func TestOptionValidation(t *testing.T) {
	q := ladderChain(3)
	if _, err := q.Optimize(WithTimeout(0)); err == nil {
		t.Error("WithTimeout(0) accepted")
	}
	if _, err := q.Optimize(WithTimeout(-time.Second)); err == nil {
		t.Error("negative timeout accepted")
	}
	if _, err := q.Optimize(WithMemoryBudget(0)); err == nil {
		t.Error("WithMemoryBudget(0) accepted")
	}
	if _, err := q.Optimize(WithContext(nil)); err == nil { //nolint:staticcheck // deliberate misuse
		t.Error("nil context accepted")
	}
}
