package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
)

// ErrBudgetExceeded is the sentinel every budget violation wraps: deadline
// and cancellation stops (via Options.Ctx) and memory-admission
// rejections (via Options.MemoryBudget). Match with errors.Is; the concrete
// *BudgetError carries the phase, progress, and elapsed time.
var ErrBudgetExceeded = errors.New("core: optimization budget exceeded")

// Budget phases, recorded in BudgetError.Phase.
const (
	// PhaseAdmission means the run was rejected before allocating: the DP
	// table footprint exceeds Options.MemoryBudget.
	PhaseAdmission = "admission"
	// PhaseProperties means the cardinality/fan property fill was cut off.
	PhaseProperties = "properties"
	// PhaseFill means a cost-fill pass was cut off.
	PhaseFill = "fill"
)

// BudgetError reports an optimization stopped by its resource budget. It
// wraps ErrBudgetExceeded and, for deadline/cancellation stops, the
// context's error — so errors.Is(err, ErrBudgetExceeded),
// errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) all work as expected.
type BudgetError struct {
	// Phase is where the budget ran out: PhaseAdmission, PhaseProperties or
	// PhaseFill.
	Phase string
	// SubsetsFilled counts the table entries processed before the stop
	// (across the current phase; 0 for admission rejections).
	SubsetsFilled uint64
	// Elapsed is the wall time spent before the stop (0 for admission).
	Elapsed time.Duration
	// Footprint and Budget are the offending table size and the admission
	// limit, in bytes; set only for PhaseAdmission.
	Footprint, Budget uint64

	cause error // ctx.Err() for cancellation stops, nil for admission
}

func (e *BudgetError) Error() string {
	if e.Phase == PhaseAdmission {
		return fmt.Sprintf("core: optimization budget exceeded: table footprint %d B over memory budget %d B", e.Footprint, e.Budget)
	}
	return fmt.Sprintf("core: optimization budget exceeded in %s phase after %d subsets (%v): %v",
		e.Phase, e.SubsetsFilled, e.Elapsed, e.cause)
}

// Unwrap exposes ErrBudgetExceeded and the underlying context error (when
// present) to errors.Is / errors.As.
func (e *BudgetError) Unwrap() []error {
	if e.cause != nil {
		return []error{ErrBudgetExceeded, e.cause}
	}
	return []error{ErrBudgetExceeded}
}

// TableFootprint returns the exact backing-array footprint, in bytes, of the
// DP table a query with n relations needs: the 2^n-element cardinality
// column (8 B) and the interleaved cost/best-split slot column (16 B), plus
// the fan column (8 B) when the query has a join graph and the memo column
// (8 B) when the cost model memoizes per-set values. This is everything the
// blitz scan keeps; a CCP fill keeps CCPFootprint more. Scratch (chunk
// starts, per-worker counters) is a few cache lines and is not counted.
// Admission control compares the run's footprint against
// Options.MemoryBudget before anything is allocated.
func TableFootprint(n int, hasGraph bool, model cost.Model) uint64 {
	if model == nil {
		model = cost.Naive{}
	}
	per := uint64(8 + 16) // card + (cost, bestLHS) slot
	if hasGraph {
		per += 8 // fan
	}
	if _, ok := model.(cost.Memoized); ok {
		per += 8 // memo
	}
	return per << uint(n)
}

// CCPFootprint returns the bytes a CCP fill over n relations keeps beyond
// TableFootprint: the 2^n-bit connectivity bitmap and, for a layer-parallel
// fill, the buffer one rank layer's connected sets are gathered into (8 B a
// set). The buffer is admitted at the largest layer any graph can have —
// C(n, ⌊n/2⌋) sets, the middle layer of a clique — so admission depends on
// the query's shape, not on its edges.
func CCPFootprint(n int, parallel bool) uint64 {
	fp := (uint64(1)<<uint(n) + 63) / 64 * 8 // connectivity bitmap
	if parallel {
		fp += bitset.Binomial(n, n/2) * 8 // rank-layer buffer
	}
	return fp
}

// budgetCheckStride is how many subsets a fill goroutine processes between
// halt checks. A halted-flag load costs ~1 ns; at this stride the overhead is
// unmeasurable while the reaction latency stays a few thousand split loops —
// far below one rank layer's work.
const budgetCheckStride = 1024

// budget tracks one optimization run against its context. The context's
// cancellation is converted into a lock-free halted flag by a watcher
// goroutine, so fill workers only ever pay an atomic load on the hot path —
// never a ctx.Err() mutex. A nil *budget (no context) makes every method a
// cheap no-op.
type budget struct {
	ctx    context.Context
	start  time.Time
	halt   atomic.Bool
	done   chan struct{} // closed by release(); stops the watcher
	filled atomic.Uint64
}

// startBudget begins tracking ctx; nil (or Background-like never-cancelled)
// contexts get no watcher. The caller must release() the returned budget —
// including on every early-exit path — or the watcher goroutine leaks.
func startBudget(ctx context.Context) *budget {
	if ctx == nil {
		return nil
	}
	bg := &budget{ctx: ctx, start: time.Now()}
	if ctx.Err() != nil {
		bg.halt.Store(true)
		return bg
	}
	if d := ctx.Done(); d != nil {
		bg.done = make(chan struct{})
		go func() {
			select {
			case <-d:
				bg.halt.Store(true)
			case <-bg.done:
			}
		}()
	}
	return bg
}

// release stops the watcher goroutine. Safe on nil and idempotent-enough for
// a single deferred call per startBudget.
func (bg *budget) release() {
	if bg != nil && bg.done != nil {
		close(bg.done)
	}
}

// halted reports whether the run's context has been cancelled or timed out.
func (bg *budget) halted() bool {
	return bg != nil && bg.halt.Load()
}

// add records n table entries as processed (for BudgetError.SubsetsFilled).
func (bg *budget) add(n uint64) {
	if bg != nil {
		bg.filled.Add(n)
	}
}

// exceeded builds the typed error for a cancellation stop in the given phase.
func (bg *budget) exceeded(phase string) error {
	cause := bg.ctx.Err()
	if cause == nil {
		// halt can only be set from ctx.Done(), so Err is non-nil by the
		// time any caller observes halted(); this is a safety net.
		cause = context.Canceled
	}
	return &BudgetError{
		Phase:         phase,
		SubsetsFilled: bg.filled.Load(),
		Elapsed:       time.Since(bg.start),
		cause:         cause,
	}
}
