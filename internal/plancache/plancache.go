// Package plancache is a sharded, byte-bounded LRU cache mapping canonical
// query fingerprints (internal/canon) to optimized plans. It is the storage
// layer of the facade's Engine: lookups take a per-shard mutex only, shard
// selection hashes the key but membership is decided by exact string
// equality, so a hash collision can never serve the wrong entry.
package plancache

import (
	"sync"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/plan"
)

// Defaults applied by New when the corresponding argument is zero.
const (
	DefaultMaxBytes = 64 << 20 // 64 MiB across all shards
	DefaultShards   = 16
)

// Entry is one cached optimization outcome, in canonical relation numbering.
// Put copies the plan into the cache's flat storage and keeps no pointer to
// the caller's tree; Get builds a fresh tree that the caller owns and may
// rewrite in place. Algorithm names are not stored: cached plans carry none.
type Entry struct {
	Plan        *plan.Node
	Cost        float64
	Cardinality float64
	// Counters are the instrumentation of the cold run that produced the
	// entry; hits report them unchanged.
	Counters core.Counters
}

// Stats is a point-in-time aggregate over all shards.
type Stats struct {
	// Hits and Misses count Get outcomes; every Get is exactly one of the
	// two, so Hits+Misses equals the number of lookups served.
	Hits, Misses uint64
	// Puts counts store operations (including overwrites of an existing key).
	Puts uint64
	// Evictions counts entries dropped to make room; Rejects counts entries
	// refused outright because they alone exceed a shard's byte budget.
	Evictions, Rejects uint64
	// Downranks counts entries demoted to eviction candidates (Downrank) —
	// the adaptive executor's signal that a cached plan misestimated at
	// execution time.
	Downranks uint64
	// Entries and Bytes are the current footprint; Capacity and Shards echo
	// the configuration.
	Entries  int
	Bytes    uint64
	Capacity uint64
	Shards   int
}

// Cache is a sharded LRU plan cache. Safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
}

// record is one plan node as the cache stores it. An entry's records list
// its plan in preorder, which rebuilds the tree without pointers:
//   - a node over k relations spans 2k−1 records, itself first;
//   - its left child is the next record, and its right child, whose set is
//     the node's set minus the left child's, follows the left child's span;
//   - a leaf is a singleton set, which names its relation.
//
// At 24 B a node in one allocation per plan, a 13-relation plan takes 640 B
// of heap instead of the 1,600 B of 25 separately allocated plan.Nodes.
type record struct {
	set  bitset.Set
	card float64
	cost float64
}

// stored is an entry as the cache holds it. Its records are never modified
// once stored (an overwrite replaces the slice), so a copy taken under the
// shard lock can be read after the lock is released.
type stored struct {
	plan     []record // preorder; nil for an entry without a plan
	cost     float64
	card     float64
	counters core.Counters
}

type lruNode struct {
	key string
	stored
	bytes      uint64
	prev, next *lruNode // intrusive LRU list; head side is most recent
}

// flatten stores e in the cache's form: its scalars and its plan's preorder
// records, in one allocation.
func flatten(e Entry) stored {
	s := stored{cost: e.Cost, card: e.Cardinality, counters: e.Counters}
	if e.Plan != nil {
		s.plan = appendRecords(make([]record, 0, countNodes(e.Plan)), e.Plan)
	}
	return s
}

func appendRecords(recs []record, n *plan.Node) []record {
	recs = append(recs, record{set: n.Set, card: n.Card, cost: n.Cost})
	if n.IsLeaf() {
		return recs
	}
	return appendRecords(appendRecords(recs, n.Left), n.Right)
}

// entry rebuilds the stored entry with a fresh plan tree, one slab of nodes
// that the caller owns.
func (s stored) entry() Entry {
	e := Entry{Cost: s.cost, Cardinality: s.card, Counters: s.counters}
	if len(s.plan) == 0 {
		return e
	}
	slab := make([]plan.Node, len(s.plan))
	for i, r := range s.plan {
		n := &slab[i]
		n.Set, n.Card, n.Cost = r.set, r.card, r.cost
		if r.set.IsSingleton() {
			n.Rel = r.set.Min()
			continue
		}
		n.Left = &slab[i+1]
		n.Right = &slab[i+2*s.plan[i+1].set.Count()]
	}
	e.Plan = &slab[0]
	return e
}

type shard struct {
	mu        sync.Mutex
	m         map[string]*lruNode
	head      *lruNode // most recently used
	tail      *lruNode // least recently used
	bytes     uint64
	maxBytes  uint64
	hits      uint64
	misses    uint64
	puts      uint64
	evicts    uint64
	rejects   uint64
	downranks uint64
}

// New returns a cache bounded to maxBytes split across the given number of
// shards (rounded up to a power of two). Zero arguments select the defaults.
func New(maxBytes uint64, shards int) *Cache {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	np := 1
	for np < shards {
		np <<= 1
	}
	perShard := maxBytes / uint64(np)
	if perShard == 0 {
		perShard = 1
	}
	c := &Cache{shards: make([]shard, np), mask: uint64(np - 1)}
	for i := range c.shards {
		c.shards[i] = shard{m: make(map[string]*lruNode), maxBytes: perShard}
	}
	return c
}

// shardFor hashes the key (FNV-1a) to pick a shard. The hash decides
// placement only — lookup inside the shard is exact string equality. Generic
// over the two byte-sequence kinds so Get and GetBytes pick shards
// identically.
func shardFor[K ~string | ~[]byte](c *Cache, key K) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&c.mask]
}

// Get returns the entry stored under key, marking it most recently used. The
// entry's plan is a fresh tree that the caller owns.
func (c *Cache) Get(key string) (Entry, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	n, ok := s.m[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	s.hits++
	s.moveToFront(n)
	st := n.stored
	s.mu.Unlock()
	return st.entry(), true
}

// GetBytes is Get for a caller-owned byte-slice key. The map index uses the
// compiler's zero-copy []byte→string conversion (the conversion must appear
// literally in the index expression to qualify), so a lookup performs no
// allocation and the caller can reuse the key buffer. The cache never
// retains key.
func (c *Cache) GetBytes(key []byte) (Entry, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	n, ok := s.m[string(key)]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	s.hits++
	s.moveToFront(n)
	st := n.stored
	s.mu.Unlock()
	return st.entry(), true
}

// peek returns what is stored under key without touching recency order or
// the hit/miss counters — a read with no serving side effects.
func (c *Cache) peek(key []byte) (stored, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.m[string(key)]
	if !ok {
		return stored{}, false
	}
	return n.stored, true
}

// Has reports whether an entry is stored under key, with no serving side
// effects and no plan built. The cluster layer uses it to decide routing
// without skewing the cache statistics that serving traffic is measured by.
func (c *Cache) Has(key []byte) bool {
	_, ok := c.peek(key)
	return ok
}

// Put stores the entry under key, evicting least-recently-used entries as
// needed to stay inside the shard's byte budget. An entry that alone exceeds
// the budget is rejected (counted in Stats.Rejects) rather than flushing the
// whole shard for a single oversized plan. The plan must be valid
// (plan.Validate); Put copies it and keeps no pointer to it.
func (c *Cache) Put(key string, e Entry) { c.put(key, e) }

// put is Put reporting whether the entry was admitted; the snapshot loader
// uses the signal to classify budget refusals as rejected records.
func (c *Cache) put(key string, e Entry) bool {
	size := entryBytes(key, e)
	st := flatten(e)
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if size > s.maxBytes {
		s.rejects++
		return false
	}
	if old, ok := s.m[key]; ok {
		s.bytes -= old.bytes
		old.stored = st
		old.bytes = size
		s.bytes += size
		s.moveToFront(old)
	} else {
		n := &lruNode{key: key, stored: st, bytes: size}
		s.m[key] = n
		s.pushFront(n)
		s.bytes += size
	}
	for s.bytes > s.maxBytes && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.m, victim.key)
		s.bytes -= victim.bytes
		s.evicts++
	}
	return true
}

// Downrank demotes the entry stored under key to its shard's
// least-recently-used position, making it the next eviction victim, and
// reports whether the key was present. The adaptive executor calls it when a
// cached plan's estimates proved stale at execution time: the entry stays
// servable (a reoptimized shape may still beat a cold run), but it no longer
// outlives fresher plans under byte pressure.
func (c *Cache) Downrank(key string) bool {
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.m[key]
	if !ok {
		return false
	}
	s.downranks++
	s.moveToBack(n)
	return true
}

// Snapshot aggregates counters and footprint across all shards. The sums are
// taken shard by shard under each shard's lock, so concurrent traffic can
// move counts between the reads — every individual counter is exact, the
// cross-shard aggregate is a consistent-enough observability view.
func (c *Cache) Snapshot() Stats {
	var st Stats
	st.Shards = len(c.shards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Puts += s.puts
		st.Evictions += s.evicts
		st.Rejects += s.rejects
		st.Downranks += s.downranks
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		st.Capacity += s.maxBytes
		s.mu.Unlock()
	}
	return st
}

func (s *shard) pushFront(n *lruNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard) moveToFront(n *lruNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *shard) moveToBack(n *lruNode) {
	if s.tail == n {
		return
	}
	s.unlink(n)
	n.prev = s.tail
	if s.tail != nil {
		s.tail.next = n
	}
	s.tail = n
	if s.head == nil {
		s.head = n
	}
}

// entryBytes estimates an entry's resident size: the key string, the plan
// at 96 B per node, and fixed map/list bookkeeping. The estimate is what the
// byte budget meters. It dates from plans stored as trees of 64-byte Nodes
// and now counts about twice the 24-byte records the cache holds; it is kept
// so a given byte budget admits the same entries it always has.
func entryBytes(key string, e Entry) uint64 {
	const (
		nodeBytes  = 96  // plan.Node (64 B) plus allocator/pointer overhead
		fixedBytes = 160 // lruNode, map slot, string header
	)
	return uint64(len(key)) + fixedBytes + uint64(countNodes(e.Plan))*nodeBytes
}

func countNodes(n *plan.Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}
