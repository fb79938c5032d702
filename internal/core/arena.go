package core

import (
	"math/bits"
	"sync"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
)

// DefaultArenaBytes is the pooled-byte budget NewArena applies when given 0.
const DefaultArenaBytes = 256 << 20 // 256 MiB

// Arena pools DP tables per size class so repeated optimizations — a serving
// engine, the measurement harness, the ladder's rungs — reuse the 2^n-element
// columns instead of re-allocating them per query. It is Optimize's only
// table-reuse path (Options.Arena), safe under concurrency and explicit about
// memory: pooled (idle) bytes are capped, and a Put that would exceed the cap
// drops the table for the GC instead.
//
// A table Get returns is owned exclusively by the caller until Put; the
// arena's lock is held only around free-list operations, never around fills.
// All methods are nil-receiver safe (a nil arena allocates and never pools),
// so Options.Arena can be plumbed unconditionally.
type Arena struct {
	mu sync.Mutex
	// free[k] holds idle tables whose columns can serve any n ≤ k without
	// reallocating. Get takes the smallest sufficient class (best fit).
	free     [bitset.MaxRelations + 1][]*Table
	bytes    uint64 // retained bytes across all pooled tables
	maxBytes uint64
	gets     uint64
	puts     uint64
	reuses   uint64
	discards uint64
	live     int64
}

// ArenaStats is a point-in-time snapshot of an arena.
type ArenaStats struct {
	// Gets and Puts count checkouts and returns; Live = Gets − Puts is the
	// number of tables currently checked out (0 when no optimization is in
	// flight — the leak invariant the tests assert).
	Gets, Puts uint64
	// Reuses counts Gets served from the pool (the rest allocated fresh);
	// Discards counts Puts dropped because the pooled-byte budget was full.
	Reuses, Discards uint64
	Live             int64
	// PooledTables and PooledBytes describe the idle pool; Capacity echoes
	// the configured budget.
	PooledTables int
	PooledBytes  uint64
	Capacity     uint64
}

// NewArena returns an arena whose idle pool is bounded to maxBytes (0 selects
// DefaultArenaBytes). The bound covers pooled tables only; tables checked out
// via Get are the caller's to account for.
func NewArena(maxBytes uint64) *Arena {
	if maxBytes == 0 {
		maxBytes = DefaultArenaBytes
	}
	return &Arena{maxBytes: maxBytes}
}

// Get returns a table Reset for n relations, reusing a pooled table whose
// capacity suffices when one exists. A nil arena just allocates.
func (a *Arena) Get(n int, hasGraph bool, model cost.Model) *Table {
	if a == nil {
		return NewTable(n, hasGraph, model)
	}
	var t *Table
	a.mu.Lock()
	a.gets++
	a.live++
	for class := n; class <= bitset.MaxRelations; class++ {
		if l := len(a.free[class]); l > 0 {
			t = a.free[class][l-1]
			a.free[class][l-1] = nil
			a.free[class] = a.free[class][:l-1]
			a.bytes -= t.RetainedBytes()
			a.reuses++
			break
		}
	}
	a.mu.Unlock()
	if t == nil {
		return NewTable(n, hasGraph, model)
	}
	t.Reset(n, hasGraph, model)
	return t
}

// Put returns a table to the pool. When pooling it would exceed the byte
// budget the table is dropped for the GC instead (still counted as returned:
// Live decreases either way). Putting nil or into a nil arena is a no-op
// except that a non-nil arena still balances its Live accounting — callers
// always pair one Put with one Get.
func (a *Arena) Put(t *Table) {
	if a == nil || t == nil {
		return
	}
	fp := t.RetainedBytes()
	class := t.sizeClass()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.puts++
	a.live--
	if class < 0 || a.bytes+fp > a.maxBytes {
		a.discards++
		return
	}
	a.free[class] = append(a.free[class], t)
	a.bytes += fp
}

// Live returns the number of tables currently checked out (Gets − Puts).
func (a *Arena) Live() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// Stats snapshots the arena's counters and pool footprint.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{
		Gets: a.gets, Puts: a.puts,
		Reuses: a.reuses, Discards: a.discards,
		Live:        a.live,
		PooledBytes: a.bytes,
		Capacity:    a.maxBytes,
	}
	for _, fl := range a.free {
		st.PooledTables += len(fl)
	}
	return st
}

// sizeClass returns the largest relation count this table's always-present
// columns (card and the interleaved cost/bestLHS slots) can serve without
// reallocating, or −1 for a table with no backing storage.
func (t *Table) sizeClass() int {
	m := cap(t.card)
	if c := cap(t.slot); c < m {
		m = c
	}
	if m == 0 {
		return -1
	}
	class := bits.Len(uint(m)) - 1
	if class > bitset.MaxRelations {
		class = bitset.MaxRelations
	}
	return class
}
