package core_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/workload"
)

// TestSlotLayout pins the DP entry to the paper's §4.1 16-byte target: a
// float64 cost and a uint32 best-split index padded to 16 bytes, 8-aligned so
// a 64-byte cache line holds exactly four entries and no entry straddles a
// line boundary.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(core.Slot{}); got != 16 {
		t.Fatalf("Slot size = %d bytes, want 16", got)
	}
	if got := unsafe.Alignof(core.Slot{}); got != 8 {
		t.Fatalf("Slot alignment = %d, want 8", got)
	}
	if got := unsafe.Offsetof(core.Slot{}.BestLHS); got != 8 {
		t.Fatalf("Slot.BestLHS offset = %d, want 8", got)
	}
}

// TestTableResetReuseAllocs asserts the arena's core promise: once a pooled
// table has grown to a query shape, re-optimizing at the same (or smaller)
// shape performs zero steady-state table allocations — Reset reuses every
// backing column and the fill writes in place.
func TestTableResetReuseAllocs(t *testing.T) {
	const n = 10
	c := workload.RandomCase(rand.New(rand.NewSource(7)), n, 2, 1e4)
	cq := core.Query{Cards: c.Cards, Graph: c.Graph}
	opts := core.Options{Model: cost.SortMerge{}, Arena: core.NewArena(0), DiscardTable: true}

	run := func() {
		if _, err := core.Optimize(cq, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: pool a table grown to this shape
	// The run allocates only the extracted plan nodes (n leaves + n−1 joins,
	// which escape to the caller by design) and the core.Result; the DP
	// columns themselves must be reused. Allow a small fixed slack over the
	// plan/result allocations so the test fails on any per-subset or
	// per-column allocation (those would add O(2^n) or O(1) large makes).
	const maxAllocs = 2*n + 4
	if got := testing.AllocsPerRun(20, run); got > maxAllocs {
		t.Fatalf("Optimize on a pooled table: %.0f allocs/op, want ≤ %d", got, maxAllocs)
	}
}
