package hybrid

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
)

// TestIDPPreCancelledContext: a dead context stops IDP before the first
// round.
func TestIDPPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cards, g := chainQuery(12, 200)
	res, err := IDP(cards, g, cost.SortMerge{}, IDPOptions{K: 4, Ctx: ctx})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res = %v, err = %v, want nil + context.Canceled", res, err)
	}
}

// TestIDPCancelMidRounds uses the round-boundary injection point to cancel
// after exactly two rounds: the third round must not start.
func TestIDPCancelMidRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t.Cleanup(faultinject.Reset)
	var rounds atomic.Int32
	faultinject.Set(faultinject.HybridRound, func() {
		if rounds.Add(1) == 3 {
			cancel()
		}
	})
	cards, g := chainQuery(14, 200)
	res, err := IDP(cards, g, cost.SortMerge{}, IDPOptions{K: 4, Ctx: ctx})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res = %v, err = %v, want nil + context.Canceled", res, err)
	}
	if got := rounds.Load(); got != 3 {
		t.Fatalf("rounds started = %d, want exactly 3 (cancel fired at the third boundary)", got)
	}
}

// TestChainedLocalPropagatesCancellation: the hybrid front door surfaces the
// context error from its IDP phase.
func TestChainedLocalPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cards, g := chainQuery(12, 200)
	res, err := ChainedLocal(cards, g, cost.SortMerge{}, IDPOptions{K: 4, Ctx: ctx})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res = %v, err = %v, want nil + context.Canceled", res, err)
	}
}

// TestChainedLocalWithoutContextUnchanged: a nil context keeps the hybrid
// exactly as before the budget plumbing.
func TestChainedLocalWithoutContextUnchanged(t *testing.T) {
	cards, g := chainQuery(12, 200)
	res, err := ChainedLocal(cards, g, cost.SortMerge{}, IDPOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.DPRounds == 0 {
		t.Fatalf("res = %+v, want a plan with DP rounds", res)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIDPCancelMidRound: IDP checks its context inside a round's DP, not
// only between rounds. On a 22-unit chain with K = 6 under the blitz
// enumerator the first round scans about 110k subsets. Cancelled about 1 ms
// in, IDP must return the context error in well under the time that round
// takes uncancelled, which the round-boundary hook measures here. A round
// allocates tables for only the subsets of at most K units (2.5 MiB in the
// first round), so no large allocation delays the cancelled run's first
// check.
func TestIDPCancelMidRound(t *testing.T) {
	cards, g := chainQuery(22, 200)
	opts := IDPOptions{K: 6, Enumerator: core.EnumeratorBlitz}
	t.Cleanup(faultinject.Reset)
	var starts []time.Time
	faultinject.Set(faultinject.HybridRound, func() { starts = append(starts, time.Now()) })
	if _, err := IDP(cards, g, cost.Naive{}, opts); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	if len(starts) < 2 {
		t.Fatalf("%d rounds, want at least 2", len(starts))
	}
	round := starts[1].Sub(starts[0])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	timer := time.AfterFunc(time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	res, err := IDP(cards, g, cost.Naive{}, opts)
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res = %v, err = %v, want nil + context.Canceled", res, err)
	}
	if elapsed > round/4 {
		t.Fatalf("cancelled IDP returned after %v; one uncancelled round takes %v", elapsed, round)
	}
	t.Logf("cancelled IDP returned after %v; one uncancelled round takes %v", elapsed, round)
}
