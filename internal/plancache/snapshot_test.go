package plancache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"sync"
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plan"
)

// testPlan builds a small valid bushy plan over relations [0, n).
func testPlan(n int) *plan.Node {
	nodes := make([]*plan.Node, n)
	for i := range nodes {
		nodes[i] = plan.Leaf(i, float64(100*(i+1)))
	}
	for len(nodes) > 1 {
		l, r := nodes[0], nodes[1]
		j := &plan.Node{
			Set:  l.Set.Union(r.Set),
			Card: l.Card * r.Card * 0.01,
			Cost: l.Cost + r.Cost + l.Card*r.Card,
			Left: l, Right: r,
		}
		nodes = append(nodes[2:], j)
	}
	return nodes[0]
}

func testEntry(n int) Entry {
	return Entry{
		Plan:        testPlan(n),
		Cost:        float64(n) * 123.456,
		Cardinality: float64(n) * 7.89,
		Counters: core.Counters{
			SubsetsVisited: uint64(n), LoopIters: uint64(3 * n), KppEvals: 2,
			KpEvals: 1, CondHits: 4, ThresholdSkips: 0, Passes: 1,
		},
	}
}

// fill populates a cache with count distinct entries and returns the keys in
// insertion order.
func fill(c *Cache, count int) []string {
	keys := make([]string, count)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		c.Put(keys[i], testEntry(2+i%5))
	}
	return keys
}

// planBitIdentical demands equal structure and bitwise-equal annotations.
func planBitIdentical(t *testing.T, a, b *plan.Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("plan nil mismatch")
	}
	if a == nil {
		return
	}
	if a.Set != b.Set || a.Rel != b.Rel || a.Algorithm != b.Algorithm ||
		math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Fatalf("node mismatch: %+v vs %+v", a, b)
	}
	planBitIdentical(t, a.Left, b.Left)
	planBitIdentical(t, a.Right, b.Right)
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New(1<<20, 4)
	keys := fill(src, 32)
	var buf bytes.Buffer
	ws, err := src.WriteSnapshot(&buf)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if ws.Entries != len(keys) {
		t.Fatalf("wrote %d entries, want %d", ws.Entries, len(keys))
	}
	if ws.Bytes != int64(buf.Len()) {
		t.Fatalf("WriteStats.Bytes = %d, buffer has %d", ws.Bytes, buf.Len())
	}

	dst := New(1<<20, 4)
	ls, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if ls.Loaded != len(keys) || ls.Skipped != 0 || ls.Rejected != 0 || ls.Truncated {
		t.Fatalf("LoadStats = %+v, want all %d loaded", ls, len(keys))
	}
	for _, k := range keys {
		want, ok := src.Get(k)
		if !ok {
			t.Fatalf("source lost %s", k)
		}
		got, ok := dst.Get(k)
		if !ok {
			t.Fatalf("restored cache misses %s", k)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			math.Float64bits(got.Cardinality) != math.Float64bits(want.Cardinality) ||
			got.Counters != want.Counters {
			t.Fatalf("%s: scalars differ: %+v vs %+v", k, got, want)
		}
		planBitIdentical(t, want.Plan, got.Plan)
	}
}

// TestSnapshotRestoresRecency: the LRU order survives the round trip — after
// a restore into a tight cache, the most recently used entries are the ones
// resident.
func TestSnapshotRestoresRecency(t *testing.T) {
	src := New(1<<20, 1)
	keys := fill(src, 10)
	// Touch key 0 so it becomes MRU.
	if _, ok := src.Get(keys[0]); !ok {
		t.Fatal("warmup get missed")
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(1<<20, 1)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Evict down to a handful by inserting junk; key 0 (MRU) must survive
	// longer than key 1 (older).
	s := &dst.shards[0]
	s.mu.Lock()
	if s.head.key() != keys[0] {
		t.Errorf("MRU after restore = %s, want %s", s.head.key(), keys[0])
	}
	if s.tail.key() != keys[1] {
		t.Errorf("LRU after restore = %s, want %s", s.tail.key(), keys[1])
	}
	s.mu.Unlock()
}

// corrupt returns a copy of b with the byte at i XORed with mask.
func corrupt(b []byte, i int, mask byte) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= mask
	return out
}

// TestSnapshotLoadCorruptionMatrix is the loader's contract: every corruption
// yields a working cold-or-partial cache — never a panic, never an error,
// never an entry whose checksum failed.
func TestSnapshotLoadCorruptionMatrix(t *testing.T) {
	src := New(1<<20, 1)
	keys := fill(src, 8)
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	headerLen := len(snapshotMagic)
	// Locate the second record's frame start to aim mid-stream corruption.
	second := headerLen
	size, n := binary.Uvarint(valid[second:])
	second += n + int(size) + 4

	cases := []struct {
		name  string
		data  []byte
		check func(t *testing.T, st LoadStats)
	}{
		{"empty file", nil, func(t *testing.T, st LoadStats) {
			if st.Loaded != 0 || st.Skipped != 0 {
				t.Errorf("stats = %+v, want zero", st)
			}
		}},
		{"header only", valid[:headerLen], func(t *testing.T, st LoadStats) {
			if st.Loaded != 0 {
				t.Errorf("loaded %d from empty snapshot", st.Loaded)
			}
		}},
		{"truncated header", valid[:3], func(t *testing.T, st LoadStats) {
			if st.Loaded != 0 || !st.Truncated {
				t.Errorf("stats = %+v, want truncated", st)
			}
		}},
		{"unknown version", corrupt(valid, 6, 0xFF), func(t *testing.T, st LoadStats) {
			if st.Loaded != 0 || st.Rejected != 1 {
				t.Errorf("stats = %+v, want pure version-skew reject", st)
			}
		}},
		{"truncated mid-record", valid[:len(valid)-5], func(t *testing.T, st LoadStats) {
			if st.Loaded != len(keys)-1 || !st.Truncated {
				t.Errorf("stats = %+v, want %d loaded + truncated", st, len(keys)-1)
			}
		}},
		{"truncated to half", valid[:len(valid)/2], func(t *testing.T, st LoadStats) {
			if st.Loaded == 0 || st.Loaded >= len(keys) || !st.Truncated {
				t.Errorf("stats = %+v, want partial restore", st)
			}
		}},
		{"flipped payload byte", corrupt(valid, second+3, 0x40), func(t *testing.T, st LoadStats) {
			if st.Skipped != 1 || st.Loaded != len(keys)-1 {
				t.Errorf("stats = %+v, want 1 skipped, rest loaded", st)
			}
		}},
		{"flipped crc byte", corrupt(valid, second-1, 0x01), func(t *testing.T, st LoadStats) {
			if st.Skipped != 1 || st.Loaded != len(keys)-1 {
				t.Errorf("stats = %+v, want 1 skipped, rest loaded", st)
			}
		}},
		{"oversized record length", func() []byte {
			out := append([]byte(nil), valid[:second]...)
			out = binary.AppendUvarint(out, MaxSnapshotRecord+1)
			return append(out, valid[second:]...)
		}(), func(t *testing.T, st LoadStats) {
			if st.Loaded != 1 || st.Rejected != 1 || !st.Truncated {
				t.Errorf("stats = %+v, want 1 loaded then framing lost", st)
			}
		}},
		{"zero-length record", func() []byte {
			out := append([]byte(nil), valid[:second]...)
			out = append(out, 0) // size 0
			var sum [4]byte
			binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(nil, crcTable))
			out = append(out, sum[:]...)
			return append(out, valid[second:]...)
		}(), func(t *testing.T, st LoadStats) {
			if st.Skipped != 1 || st.Loaded != len(keys) {
				t.Errorf("stats = %+v, want zero-length skipped, all real records loaded", st)
			}
		}},
		{"garbage", []byte(strings.Repeat("\xde\xad\xbe\xef", 64)), func(t *testing.T, st LoadStats) {
			if st.Loaded != 0 {
				t.Errorf("loaded %d from garbage", st.Loaded)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1<<20, 1)
			st, err := c.LoadSnapshot(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatalf("LoadSnapshot returned error on corruption: %v", err)
			}
			tc.check(t, st)
			// Whatever loaded must be genuine: retrievable, valid, bit-equal
			// to the source entry.
			if got := c.Snapshot().Entries; got != st.Loaded {
				t.Errorf("cache has %d entries, stats say %d loaded", got, st.Loaded)
			}
			for _, k := range keys {
				got, ok := c.Get(k)
				if !ok {
					continue
				}
				want, _ := src.Get(k)
				planBitIdentical(t, want.Plan, got.Plan)
				if err := got.Plan.Validate(); err != nil {
					t.Errorf("restored plan invalid: %v", err)
				}
			}
		})
	}
}

// TestSnapshotLoadRejectsMalformedShape: a checksummed record loads only
// when its shape is a tree over at most bitset.MaxRelations relations whose
// every left operand is a nonempty proper subset of its node's set, with
// nothing after it. Anything else comes from a foreign or crafted writer and
// is skipped as corrupt.
func TestSnapshotLoadRejectsMalformedShape(t *testing.T) {
	record := func(shape ...uint64) []byte {
		var p []byte
		p = binary.AppendUvarint(p, 1)
		p = append(p, 'k')
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(6))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(6))
		p = append(p, make([]byte, 7)...) // seven zero counters
		for _, v := range shape {
			p = binary.AppendUvarint(p, v)
		}
		out := append([]byte(snapshotMagic), binary.AppendUvarint(nil, uint64(len(p)))...)
		out = append(out, p...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, crcTable))
	}
	for _, tc := range []struct {
		name   string
		shape  []uint64
		loaded int
	}{
		{"join of two leaves", []uint64{0b11, 0b01}, 1},
		{"bushy", []uint64{0b1111, 0b0101, 0b0001, 0b0010}, 1},
		{"single relation", []uint64{0b100}, 1},
		{"no plan", []uint64{0}, 0},
		{"root beyond the relation limit", []uint64{1 << 30}, 0},
		{"left operand outside its node", []uint64{0b11, 0b100}, 0},
		{"left operand is the whole node", []uint64{0b11, 0b11}, 0},
		{"empty left operand", []uint64{0b11, 0}, 0},
		{"shape cut short", []uint64{0b111, 0b011}, 0},
		{"bytes after the shape", []uint64{0b11, 0b01, 0b01}, 0},
	} {
		c := New(1<<20, 1)
		st, err := c.LoadSnapshot(bytes.NewReader(record(tc.shape...)))
		if err != nil || st.Loaded != tc.loaded || st.Skipped != 1-tc.loaded {
			t.Errorf("%s: stats %+v err %v, want %d loaded", tc.name, st, err, tc.loaded)
		}
		if e, ok := c.Get("k"); ok {
			if err := e.Plan.Validate(); err != nil || e.Plan.Set != bitset.Set(tc.shape[0]) {
				t.Errorf("%s: loaded plan %v (%v)", tc.name, e.Plan, err)
			}
		}
	}
}

// TestSnapshotLoadBudgetReject: entries that exceed the destination shard's
// byte budget are counted rejected, not loaded.
func TestSnapshotLoadBudgetReject(t *testing.T) {
	src := New(1<<20, 1)
	fill(src, 4)
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	tiny := New(1, 1) // per-shard budget of 1 byte: everything is oversized
	st, err := tiny.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 0 || st.Rejected != 4 {
		t.Fatalf("stats = %+v, want 4 rejected", st)
	}
}

// TestSnapshotFaultInjection drives the writer and loader error points.
func TestSnapshotFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	src := New(1<<20, 1)
	fill(src, 6)

	boom := errors.New("injected")
	calls := 0
	faultinject.SetErr(faultinject.SnapshotWriteRecord, func() error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot error = %v, want injected fault", err)
	}
	faultinject.Reset()

	buf.Reset()
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loads := 0
	faultinject.SetErr(faultinject.SnapshotLoadRecord, func() error {
		loads++
		if loads == 2 {
			return boom
		}
		return nil
	})
	dst := New(1<<20, 1)
	st, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if st.Loaded != 5 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want exactly the faulted record skipped", st)
	}
}

// TestSnapshotWhileServing races WriteSnapshot and LoadSnapshot against
// concurrent Get/Put traffic; run under -race by the Makefile stress target.
func TestSnapshotWhileServing(t *testing.T) {
	c := New(1<<20, 4)
	keys := fill(c, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Get(keys[(i+w)%len(keys)])
				if i%7 == 0 {
					c.Put(fmt.Sprintf("w%d-%d", w, i), testEntry(3))
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if _, err := c.WriteSnapshot(&buf); err != nil {
			t.Errorf("WriteSnapshot under load: %v", err)
			break
		}
		dst := New(1<<20, 4)
		if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("LoadSnapshot under load: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestLoadStatsString(t *testing.T) {
	s := LoadStats{Loaded: 3, Skipped: 1, Truncated: true}
	if got := s.String(); got != "loaded 3 (skipped 1, rejected 0, truncated tail)" {
		t.Errorf("String() = %q", got)
	}
}
