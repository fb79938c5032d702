package plancache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/plan"
)

func leafPlan(card float64) *plan.Node {
	return &plan.Node{Set: bitset.Of(0), Rel: 0, Card: card}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(0, 0)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := Entry{Plan: testPlan(5), Cost: 7, Cardinality: 42}
	c.Put("k", want)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got.Cost != 7 || got.Cardinality != 42 {
		t.Fatalf("round trip changed entry: %+v", got)
	}
	// Get builds a fresh tree per call with the stored plan's shape, every
	// number zero for the caller to re-derive, never the caller's tree.
	sameShape(t, want.Plan, got.Plan)
	if got.Plan == want.Plan {
		t.Fatal("Get returned the tree that was stored")
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("counters after one miss, one put, one hit: %+v", st)
	}
	if st.Shards != DefaultShards || st.Capacity != DefaultMaxBytes {
		t.Fatalf("defaults not applied: %+v", st)
	}
	// Put kept no pointer to the caller's tree, and the tree Get returned
	// is the caller's to rewrite.
	want.Plan.Left.Set, got.Plan.Left.Set = 0, 0
	if again, _ := c.Get("k"); again.Plan.Left.Set == 0 {
		t.Fatal("a caller's write reached the cached plan")
	}
}

// sameShape demands that got has want's shape, node for node in order, and
// that every one of got's numbers is zero.
func sameShape(t *testing.T, want, got *plan.Node) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("plan nil mismatch")
	}
	if want == nil {
		return
	}
	if want.Set != got.Set || want.Rel != got.Rel || got.Card != 0 || got.Cost != 0 || got.Algorithm != "" {
		t.Fatalf("node mismatch: %+v vs %+v", want, got)
	}
	sameShape(t, want.Left, got.Left)
	sameShape(t, want.Right, got.Right)
}

func TestShardCountRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := New(0, tc.in).Snapshot().Shards; got != tc.want {
			t.Fatalf("shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// A single-shard cache makes LRU order observable: filling past the budget
// must evict the least recently used key, and a Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	// Entries are keyBytes + 160 fixed (nil plan); budget fits three.
	perEntry := entryBytes("k0", Entry{})
	c := New(perEntry*3, 1)
	c.Put("k0", Entry{Cost: 0})
	c.Put("k1", Entry{Cost: 1})
	c.Put("k2", Entry{Cost: 2})
	if st := c.Snapshot(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("three entries should fit exactly: %+v", st)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 vanished")
	}
	c.Put("k3", Entry{Cost: 3})
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if st := c.Snapshot(); st.Evictions != 1 {
		t.Fatalf("want exactly one eviction: %+v", st)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(0, 1)
	c.Put("k", Entry{Cost: 1})
	c.Put("k", Entry{Cost: 2})
	got, ok := c.Get("k")
	if !ok || got.Cost != 2 {
		t.Fatalf("overwrite not visible: %+v ok=%v", got, ok)
	}
	st := c.Snapshot()
	if st.Entries != 1 || st.Puts != 2 {
		t.Fatalf("overwrite miscounted: %+v", st)
	}
	if st.Bytes != entryBytes("k", Entry{Cost: 2}) {
		t.Fatalf("overwrite leaked bytes: %+v", st)
	}
}

// An entry larger than a shard's whole budget must be refused, not admitted
// by flushing everything else.
func TestOversizedEntryRejected(t *testing.T) {
	small := entryBytes("a", Entry{})
	c := New(small, 1)
	c.Put("a", Entry{})
	big := Entry{Plan: leafPlan(1)} // +96 bytes pushes it over
	c.Put("oversized", big)
	if _, ok := c.Get("oversized"); ok {
		t.Fatal("oversized entry was admitted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("rejecting an oversized entry must not disturb residents")
	}
	st := c.Snapshot()
	if st.Rejects != 1 || st.Evictions != 0 {
		t.Fatalf("want one reject, no evictions: %+v", st)
	}
}

// Byte accounting: Bytes tracks the live set exactly through puts,
// overwrites and evictions, and never exceeds Capacity.
func TestByteAccounting(t *testing.T) {
	c := New(2048, 2)
	var wantTotal uint64
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%03d", i)
		c.Put(key, Entry{Plan: leafPlan(float64(i))})
	}
	st := c.Snapshot()
	if st.Bytes > st.Capacity {
		t.Fatalf("cache overshot its budget: %+v", st)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var sum uint64
		for _, n := range s.m {
			sum += n.bytes
		}
		if sum != s.bytes {
			t.Fatalf("shard %d bytes %d, entries sum to %d", i, s.bytes, sum)
		}
		wantTotal += sum
		s.mu.Unlock()
	}
	if st.Bytes != wantTotal {
		t.Fatalf("snapshot bytes %d, shards hold %d", st.Bytes, wantTotal)
	}
	if st.Evictions == 0 {
		t.Fatal("test should have forced evictions; raise the put count")
	}
}

// Concurrent mixed traffic must be race-clean and keep exact counters:
// every Get is a hit or a miss, and puts are all counted.
func TestConcurrentCounters(t *testing.T) {
	c := New(1<<20, 8)
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%50)
				if i%2 == 0 {
					c.Put(key, Entry{Cost: float64(i)})
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Snapshot()
	if st.Puts != workers*perW/2 {
		t.Fatalf("puts %d, want %d", st.Puts, workers*perW/2)
	}
	if st.Hits+st.Misses != workers*perW/2 {
		t.Fatalf("hits %d + misses %d ≠ gets %d", st.Hits, st.Misses, workers*perW/2)
	}
}

// Keys must never alias across shards: same-hash placement is irrelevant
// because membership is string equality.
func TestDistinctKeysNeverAlias(t *testing.T) {
	c := New(1<<20, 4)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("fingerprint-%d", i)
		c.Put(keys[i], Entry{Cost: float64(i)})
	}
	for i, k := range keys {
		got, ok := c.Get(k)
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if got.Cost != float64(i) {
			t.Fatalf("key %d returned entry with cost %v", i, got.Cost)
		}
	}
}

// TestGetBytesMatchesGet proves the byte-key lookup is behaviorally identical
// to the string one — same shard choice, same hit/miss outcomes, same LRU and
// counter effects — and that a GetBytes hit allocates only the plan it
// returns, never the key (the engine's serve path builds its key in a reused
// buffer).
func TestGetBytesMatchesGet(t *testing.T) {
	c := New(0, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("fingerprint-%03d\x00opts", i)
		c.Put(keys[i], Entry{Plan: leafPlan(float64(i)), Cost: float64(i)})
	}
	for i, k := range keys {
		got, ok := c.GetBytes([]byte(k))
		if !ok {
			t.Fatalf("GetBytes(%q) missed a stored key", k)
		}
		if got.Cost != float64(i) {
			t.Fatalf("GetBytes(%q) returned entry with cost %v, want %d", k, got.Cost, i)
		}
		ref, ok := c.Get(k)
		if !ok {
			t.Fatalf("Get and GetBytes disagree for %q", k)
		}
		planBitIdentical(t, ref.Plan, got.Plan)
	}
	if _, ok := c.GetBytes([]byte("absent")); ok {
		t.Fatal("GetBytes reported a hit for an absent key")
	}
	st := c.Snapshot()
	if st.Hits != 128 || st.Misses != 1 {
		t.Fatalf("counters after 128 hits, 1 miss: %+v", st)
	}

	// The key lookup allocates nothing; the one allocation is the slab of
	// the fresh plan tree the hit returns.
	key := []byte(keys[7])
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := c.GetBytes(key); !ok {
			t.Fatal("hit became a miss")
		}
	}); got != 1 {
		t.Fatalf("GetBytes hit allocated %.0f times per op, want 1 (the plan)", got)
	}
}

// TestDownrank: a downranked entry stays servable but becomes the next
// eviction victim regardless of its recency.
func TestDownrank(t *testing.T) {
	perEntry := entryBytes("k0", Entry{})
	c := New(perEntry*3, 1)
	c.Put("k0", Entry{Cost: 0})
	c.Put("k1", Entry{Cost: 1})
	c.Put("k2", Entry{Cost: 2})
	// k2 is most recent; downranking moves it behind k0.
	if !c.Downrank("k2") {
		t.Fatal("Downrank(k2) reported the key missing")
	}
	if c.Downrank("nope") {
		t.Fatal("Downrank invented a key")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("downranked entry must remain servable")
	}
	// Serving k2 re-promoted it; downrank again, then overflow the budget.
	if !c.Downrank("k2") {
		t.Fatal("second Downrank(k2) failed")
	}
	c.Put("k3", Entry{Cost: 3})
	if _, ok := c.Get("k2"); ok {
		t.Fatal("downranked k2 should have been the eviction victim")
	}
	for _, k := range []string{"k0", "k1", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if st := c.Snapshot(); st.Downranks != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 downranks, 1 eviction: %+v", st)
	}
}

// TestDownrankSingleEntry: downranking the only (head == tail) entry is a
// no-op structurally and must not corrupt the list.
func TestDownrankSingleEntry(t *testing.T) {
	c := New(0, 1)
	c.Put("only", Entry{Cost: 1})
	if !c.Downrank("only") {
		t.Fatal("Downrank(only) failed")
	}
	c.Put("next", Entry{Cost: 2})
	for _, k := range []string{"only", "next"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after single-entry downrank", k)
		}
	}
}

// TestEntryLiveBytes pins what one cached plan holds on the heap: 2,000
// entries whose plans span 13 relations (25 nodes) under 400-byte keys,
// opt-cold's average key length, must hold at most 600 B each after GC, and
// never more than entryBytes meters for them. The plans are built, not
// optimized: the bytes do not depend on how a plan was found.
func TestEntryLiveBytes(t *testing.T) {
	const entries, rels, keyLen = 2000, 13, 400
	prefix := strings.Repeat("k", keyLen-8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(1<<30, 0)
	var metered uint64
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("%s%08d", prefix, i)
		e := testEntry(rels)
		metered = entryBytes(key, e)
		c.Put(key, e)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / entries
	runtime.KeepAlive(c)
	t.Logf("live heap %.0f B per entry; entryBytes meters %d B", perEntry, metered)
	if perEntry > 600 {
		t.Errorf("live heap %.0f B per entry, want at most 600", perEntry)
	}
	if perEntry > float64(metered) {
		t.Errorf("live heap %.0f B per entry exceeds the %d B entryBytes meters", perEntry, metered)
	}
}
