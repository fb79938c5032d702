package plancache

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
)

// peekEntry is Get without its serving side effects: recency order and the
// hit/miss counters stay as they are.
func peekEntry(c *Cache, key string) (Entry, bool) {
	rec, ok := c.peek([]byte(key))
	if !ok {
		return Entry{}, false
	}
	return recordEntry(rec), true
}

// pipeStream writes the snapshot of src into one end of a net.Pipe while
// LoadSnapshot reads the other — the exact shape of the cluster's warm
// handoff, where the codec runs over a network connection instead of a file.
// limit > 0 cuts the writer off after that many bytes (connection loss
// mid-stream); limit < 0 streams everything.
func pipeStream(t *testing.T, src *Cache, dst *Cache, limit int64) LoadStats {
	t.Helper()
	cli, srv := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer srv.Close()
		var w io.Writer = srv
		if limit >= 0 {
			w = &cutWriter{w: srv, remaining: limit}
		}
		// The writer may fail once the cut triggers (or the reader hangs up);
		// from the handoff sender's perspective that is the peer's problem.
		_, _ = src.WriteSnapshot(w)
	}()
	ls, err := dst.LoadSnapshot(cli)
	if err != nil {
		t.Fatalf("LoadSnapshot over net.Pipe: %v", err)
	}
	cli.Close()
	wg.Wait()
	return ls
}

// cutWriter passes bytes through until the budget runs out, then reports a
// closed-connection error — a peer dying mid-record.
type cutWriter struct {
	w         io.Writer
	remaining int64
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, net.ErrClosed
	}
	if int64(len(p)) > c.remaining {
		n, _ := c.w.Write(p[:c.remaining])
		c.remaining = 0
		return n, net.ErrClosed
	}
	n, err := c.w.Write(p)
	c.remaining -= int64(n)
	return n, err
}

// TestSnapshotOverPipeComplete streams a full snapshot through a net.Pipe and
// requires a byte-exact restore with exact accounting, certifying the codec
// carries over a network transport unchanged.
func TestSnapshotOverPipeComplete(t *testing.T) {
	src := New(1<<20, 4)
	keys := fill(src, 25)
	dst := New(1<<20, 4)
	ls := pipeStream(t, src, dst, -1)
	if ls.Loaded != len(keys) || ls.Skipped != 0 || ls.Rejected != 0 || ls.Truncated {
		t.Fatalf("pipe restore stats = %+v, want %d loaded and nothing else", ls, len(keys))
	}
	for _, k := range keys {
		want, _ := peekEntry(src, k)
		got, ok := peekEntry(dst, k)
		if !ok {
			t.Fatalf("key %q missing after pipe restore", k)
		}
		planBitIdentical(t, want.Plan, got.Plan)
	}
}

// TestSnapshotOverPipeTruncated cuts the stream at every prefix length of a
// small snapshot and requires, for each cut: no error, exact LoadStats
// accounting (every loaded record is a real prefix record, counts never
// exceed what was streamed), and a cache whose every entry is bit-identical
// to the source — a damaged peer stream may shorten the restore but can never
// poison it.
func TestSnapshotOverPipeTruncated(t *testing.T) {
	src := New(1<<20, 1)
	keys := fill(src, 8)
	var full bytes.Buffer
	ws, err := src.WriteSnapshot(&full)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	total := int64(full.Len())
	for cut := int64(0); cut <= total; cut++ {
		dst := New(1<<20, 4)
		ls := pipeStream(t, src, dst, cut)
		if ls.Loaded+ls.Skipped+ls.Rejected > ws.Entries {
			t.Fatalf("cut %d: accounting %+v exceeds the %d records written", cut, ls, ws.Entries)
		}
		if cut < total && ls.Loaded == ws.Entries && !ls.Truncated {
			t.Fatalf("cut %d of %d: claims a complete untruncated restore (%+v)", cut, total, ls)
		}
		loaded := 0
		for _, k := range keys {
			got, ok := peekEntry(dst, k)
			if !ok {
				continue
			}
			loaded++
			want, _ := peekEntry(src, k)
			planBitIdentical(t, want.Plan, got.Plan)
			if got.Cost != want.Cost || got.Cardinality != want.Cardinality || got.Counters != want.Counters {
				t.Fatalf("cut %d: key %q restored with altered bookkeeping", cut, k)
			}
		}
		if loaded != ls.Loaded {
			t.Fatalf("cut %d: LoadStats.Loaded = %d but %d source keys resident — accounting not exact",
				cut, ls.Loaded, loaded)
		}
		if st := dst.Snapshot(); st.Entries != ls.Loaded {
			t.Fatalf("cut %d: cache holds %d entries, LoadStats says %d", cut, st.Entries, ls.Loaded)
		}
	}
}

// TestSnapshotOverPipeMidRecordCorruption damages one byte mid-stream (not
// just truncation) while the rest keeps flowing, and requires the loader to
// skip exactly the damaged record and keep every other one.
func TestSnapshotOverPipeMidRecordCorruption(t *testing.T) {
	src := New(1<<20, 1)
	fill(src, 6)
	var full bytes.Buffer
	if _, err := src.WriteSnapshot(&full); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw := full.Bytes()
	// Walk the framing to find the third record's payload and flip a byte in
	// its middle: the length prefix and every other record stay intact, so
	// exactly one CRC must fail.
	off := len(snapshotMagic)
	flip := -1
	for rec := 0; off < len(raw); rec++ {
		size, m := binary.Uvarint(raw[off:])
		if m <= 0 {
			t.Fatalf("test framing walk lost at offset %d", off)
		}
		payload := off + m
		if rec == 2 {
			flip = payload + int(size)/2
			break
		}
		off = payload + int(size) + 4
	}
	if flip < 0 {
		t.Fatal("snapshot has fewer than 3 records")
	}
	corrupted := append([]byte(nil), raw...)
	corrupted[flip] ^= 0x01

	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		for i := 0; i < len(corrupted); i += 7 { // dribble in small chunks
			end := i + 7
			if end > len(corrupted) {
				end = len(corrupted)
			}
			if _, err := srv.Write(corrupted[i:end]); err != nil {
				return
			}
		}
	}()
	dst := New(1<<20, 4)
	ls, err := dst.LoadSnapshot(cli)
	cli.Close()
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if ls.Skipped != 1 {
		t.Fatalf("one flipped byte: LoadStats = %+v, want exactly 1 skipped", ls)
	}
	if ls.Loaded+ls.Skipped != 6 || ls.Truncated {
		t.Fatalf("one flipped byte mid-payload: LoadStats = %+v, want 5 loaded + 1 skipped, no truncation", ls)
	}
}
