// Package plancache is a sharded, byte-bounded LRU cache mapping canonical
// query fingerprints (internal/canon) to optimized plans. It is the storage
// layer of the facade's Engine: lookups take a per-shard mutex only, shard
// selection hashes the key but membership is decided by exact string
// equality, so a hash collision can never serve the wrong entry.
package plancache

import (
	"encoding/binary"
	"math"
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
// The cache keeps the plan's shape only: Put copies the tree's relation sets
// and keeps no pointer to it, and Get builds a fresh tree that the caller
// owns and may rewrite in place, whose every Card and Cost is zero. The
// entry's root Cost and Cardinality are kept; the engine re-derives each
// node's numbers from the canonical query (core.AnnotatePlan) and serves a
// hit only when its root matches them bit for bit. Algorithm names are not
// stored: cached plans carry none.
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

// An entry is stored as one string, its record, which is also its snapshot
// payload (snapshot.go):
//
//	uvarint len(key), key
//	cost, cardinality     IEEE-754 bits, 8 bytes little-endian each
//	7 uvarint counters    SubsetsVisited, LoopIters, KppEvals, KpEvals,
//	                      CondHits, ThresholdSkips, Passes
//	uvarint root set      0 for an entry without a plan
//	uvarint left operand  of each join, in preorder
//
// The shape rebuilds the tree: a node over a set s that is not a singleton
// is followed by its left operand l, then l's subtree, then the subtree of
// s − l; a singleton is a leaf naming its relation. A 13-relation plan under
// a 400-byte key is a record of about 460 B, one allocation. The map key is
// the record's key bytes, so the key is not stored twice. Records are
// never modified once stored (an overwrite replaces the string), so a copy
// taken under the shard lock can be read after the lock is released.
type lruNode struct {
	rec        string
	bytes      uint64
	prev, next *lruNode // intrusive LRU list; head side is most recent
}

// key returns the record's key bytes: the shard map's key for this node.
func (n *lruNode) key() string { return recordKey(n.rec) }

// recordKey returns the key bytes of a stored record.
func recordKey(rec string) string {
	c := cursor[string]{b: rec, ok: true}
	size := int(c.uvarint())
	return rec[c.off : c.off+size]
}

// appendRecord appends the record of (key, e) to b.
func appendRecord(b []byte, key string, e Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Cost))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Cardinality))
	c := e.Counters
	for _, v := range [...]uint64{c.SubsetsVisited, c.LoopIters, c.KppEvals,
		c.KpEvals, c.CondHits, c.ThresholdSkips, uint64(c.Passes)} {
		b = binary.AppendUvarint(b, v)
	}
	if e.Plan == nil {
		return binary.AppendUvarint(b, 0)
	}
	return appendShape(binary.AppendUvarint(b, uint64(e.Plan.Set)), e.Plan)
}

func appendShape(b []byte, n *plan.Node) []byte {
	if n.IsLeaf() {
		return b
	}
	b = binary.AppendUvarint(b, uint64(n.Left.Set))
	return appendShape(appendShape(b, n.Left), n.Right)
}

// cursor reads a record or a snapshot payload. ok turns false at the first
// truncated or overlong field and stays false; later reads return zeros.
type cursor[T ~string | ~[]byte] struct {
	b   T
	off int
	ok  bool
}

func (c *cursor[T]) uvarint() uint64 {
	var x uint64
	for shift := uint(0); c.ok && shift < 64; shift += 7 {
		if c.off >= len(c.b) {
			break
		}
		b := c.b[c.off]
		c.off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	c.ok = false
	return 0
}

func (c *cursor[T]) float() float64 {
	if !c.ok || len(c.b)-c.off < 8 {
		c.ok = false
		return 0
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(c.b[c.off+i])
	}
	c.off += 8
	return math.Float64frombits(v)
}

// readRecord reads a record up to its shape: the key, the entry's scalars
// and counters, and a cursor positioned at the root set. The cursor is not
// ok when the record is truncated or a field overflows.
func readRecord[T ~string | ~[]byte](rec T) (key T, e Entry, c cursor[T]) {
	c = cursor[T]{b: rec, ok: true}
	size := c.uvarint()
	if !c.ok || size > uint64(len(rec)-c.off) {
		c.ok = false
		return key, e, c
	}
	key = rec[c.off : c.off+int(size)]
	c.off += int(size)
	e.Cost = c.float()
	e.Cardinality = c.float()
	e.Counters.SubsetsVisited = c.uvarint()
	e.Counters.LoopIters = c.uvarint()
	e.Counters.KppEvals = c.uvarint()
	e.Counters.KpEvals = c.uvarint()
	e.Counters.CondHits = c.uvarint()
	e.Counters.ThresholdSkips = c.uvarint()
	if p := c.uvarint(); p <= math.MaxInt32 {
		e.Counters.Passes = int(p)
	} else {
		c.ok = false
	}
	return key, e, c
}

// recordEntry rebuilds a stored entry with a fresh shape-only plan tree,
// one slab of nodes that the caller owns.
func recordEntry(rec string) Entry {
	_, e, c := readRecord(rec)
	root := bitset.Set(c.uvarint())
	if root == 0 {
		return e
	}
	slab := make([]plan.Node, 2*root.Count()-1)
	buildShape(slab, 0, root, &c)
	e.Plan = &slab[0]
	return e
}

// buildShape fills slab[i:] with the subtree of set s read from c in
// preorder and returns the index after it.
func buildShape(slab []plan.Node, i int, s bitset.Set, c *cursor[string]) int {
	n := &slab[i]
	n.Set = s
	if s.IsSingleton() {
		n.Rel = s.Min()
		return i + 1
	}
	l := bitset.Set(c.uvarint())
	n.Left = &slab[i+1]
	j := buildShape(slab, i+1, l, c)
	n.Right = &slab[j]
	return buildShape(slab, j, s^l, c)
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
	rec := n.rec
	s.mu.Unlock()
	return recordEntry(rec), true
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
	rec := n.rec
	s.mu.Unlock()
	return recordEntry(rec), true
}

// Refuse moves one lookup of key from the hits to the misses: the caller got
// an entry from GetBytes but did not serve it.
func (c *Cache) Refuse(key []byte) {
	s := shardFor(c, key)
	s.mu.Lock()
	s.hits--
	s.misses++
	s.mu.Unlock()
}

// peek returns the record stored under key without touching recency order
// or the hit/miss counters — a read with no serving side effects.
func (c *Cache) peek(key []byte) (string, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.m[string(key)]
	if !ok {
		return "", false
	}
	return n.rec, true
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
// (plan.Validate); Put keeps its shape and no pointer to it.
func (c *Cache) Put(key string, e Entry) { c.put(key, e) }

// put is Put reporting whether the entry was admitted.
func (c *Cache) put(key string, e Entry) bool {
	var buf [512]byte
	rec := string(appendRecord(buf[:0], key, e))
	return c.putRecord(rec, len(key), countNodes(e.Plan))
}

// putRecord stores a record whose key is keyLen bytes and whose plan has
// nodes nodes; the snapshot loader calls it with validated payloads and
// uses the result to classify budget refusals as rejected records.
func (c *Cache) putRecord(rec string, keyLen, nodes int) bool {
	size := meteredBytes(keyLen, nodes)
	key := recordKey(rec)
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if size > s.maxBytes {
		s.rejects++
		return false
	}
	if old, ok := s.m[key]; ok {
		// The map keeps the old node, whose key now aliases the new record
		// only by value: re-key it so the old record can be collected.
		delete(s.m, key)
		s.bytes -= old.bytes
		old.rec = rec
		old.bytes = size
		s.m[key] = old
		s.bytes += size
		s.moveToFront(old)
	} else {
		n := &lruNode{rec: rec, bytes: size}
		s.m[key] = n
		s.pushFront(n)
		s.bytes += size
	}
	for s.bytes > s.maxBytes && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.m, victim.key())
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
// and now counts about five times the shape-only record the cache holds; it
// is kept so a given byte budget admits the same entries it always has.
func entryBytes(key string, e Entry) uint64 { return meteredBytes(len(key), countNodes(e.Plan)) }

func meteredBytes(keyLen, nodes int) uint64 {
	const (
		nodeBytes  = 96  // plan.Node (64 B) plus allocator/pointer overhead
		fixedBytes = 160 // lruNode, map slot, string header
	)
	return uint64(keyLen) + fixedBytes + uint64(nodes)*nodeBytes
}

func countNodes(n *plan.Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}
