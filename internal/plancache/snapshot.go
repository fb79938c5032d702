// Snapshot codec: a versioned, length-prefixed, CRC-checksummed binary
// serialization of the cache's entries, the durable half of blitzd's
// crash-safe warm restarts. The format is designed so that *any* corruption —
// truncation, bit flips, version skew, garbage — degrades to a cold or
// partial cache, never to an error exit and never to a poisoned hit:
//
//	header  "bzsnap2\x00"                          8 bytes, format version
//	record  uvarint payloadLen                     framing
//	        payload                                an entry's stored record
//	        uint32 CRC-32C(payload), little-endian integrity
//	...repeated until EOF
//
// A payload is the record the cache holds for the entry (see lruNode): key,
// root cost and cardinality, counters and the plan's shape.
//
// Every record is independently checksummed and independently decodable, so
// the loader admits exactly the records whose checksum and structural
// validation both pass and skips the rest. A corrupted length field loses the
// framing for everything after it (there is no resynchronization marker —
// the snapshot is a cache, and a partial restore is a correct restore), which
// the loader reports as one truncated tail.
package plancache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/faultinject"
)

// snapshotMagic identifies the snapshot format and its version. A future
// incompatible codec bumps the digit; a loader seeing an unknown header
// treats the whole file as version skew and restores nothing.
const snapshotMagic = "bzsnap2\x00"

// MaxSnapshotRecord bounds one record's payload. Real entries are tiny (the
// shape of a plan at the representation's n=30 limit is 30 uvarints), so a
// length beyond this is either corruption of the length field itself or an
// oversized record from a foreign writer; both lose the framing and end the
// restore.
const MaxSnapshotRecord = 1 << 20

// WriteStats reports what WriteSnapshot persisted.
type WriteStats struct {
	// Entries is the number of records written.
	Entries int
	// Bytes is the total snapshot size, header included.
	Bytes int64
}

// LoadStats reports a LoadSnapshot outcome. Loaded + Skipped + Rejected
// covers every record the loader saw whole; Truncated marks that the stream
// ended inside a record (or lost framing), so an unknown number of further
// records may have been dropped with it.
type LoadStats struct {
	// Loaded counts records restored into the cache.
	Loaded int
	// Skipped counts records dropped for failed checksums or undecodable
	// payloads — the corruption cases.
	Skipped int
	// Rejected counts structurally whole records the cache refused: version
	// skew (reported once for the whole file), oversized records, and
	// entries beyond a shard's byte budget.
	Rejected int
	// Truncated reports that the stream ended mid-record or lost framing.
	Truncated bool
}

// countingWriter tracks bytes written through an io.Writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteSnapshot serializes every resident entry to w. Entries are collected
// shard by shard under each shard's lock — concurrent traffic keeps flowing
// between shards — and written outside it (records are immutable once
// cached, so only the string header copy needs the lock). Within a shard,
// entries are written least-recently-used first, so a sequential
// LoadSnapshot restores the recency order along with the contents.
//
// A write error aborts the snapshot; the caller (internal/snapshot) writes to
// a temp file and renames only on success, so a failed snapshot never damages
// the previous one.
func (c *Cache) WriteSnapshot(w io.Writer) (WriteStats, error) {
	return c.WriteSnapshotFiltered(w, nil)
}

// WriteSnapshotFiltered is WriteSnapshot restricted to the entries whose key
// satisfies keep (nil keeps everything). The cluster's warm-handoff endpoint
// streams a peer exactly the shapes that peer owns under the current ring by
// passing an ownership predicate; the stream is the ordinary snapshot format,
// so LoadSnapshot on the receiving side restores it unchanged.
func (c *Cache) WriteSnapshotFiltered(w io.Writer, keep func(key string) bool) (WriteStats, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var st WriteStats
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return st, err
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// The nodes stay owned by the shard; copy the records out before
		// unlocking so eviction cannot race the write.
		recs := make([]string, 0, len(s.m))
		for n := s.tail; n != nil; n = n.prev {
			if keep == nil || keep(n.key()) {
				recs = append(recs, n.rec)
			}
		}
		s.mu.Unlock()
		for _, rec := range recs {
			if err := faultinject.InjectErr(faultinject.SnapshotWriteRecord); err != nil {
				return st, err
			}
			if err := writeRecord(bw, rec); err != nil {
				return st, err
			}
			st.Entries++
		}
	}
	if err := bw.Flush(); err != nil {
		return st, err
	}
	st.Bytes = cw.n
	return st, nil
}

// WriteEntry writes a one-record snapshot stream (header + the entry stored
// under key) to w, reporting whether the key was present. It is the peer
// cache-fill payload: the receiving side restores it with the ordinary
// LoadSnapshot path, every corruption tolerance included, so a damaged fill
// degrades to a no-op exactly like a damaged snapshot. The read takes no
// serving side effects.
func (c *Cache) WriteEntry(w io.Writer, key []byte) (bool, WriteStats, error) {
	rec, ok := c.peek(key)
	var st WriteStats
	if !ok {
		return false, st, nil
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return true, st, err
	}
	if err := writeRecord(bw, rec); err != nil {
		return true, st, err
	}
	st.Entries = 1
	if err := bw.Flush(); err != nil {
		return true, st, err
	}
	st.Bytes = cw.n
	return true, st, nil
}

// writeRecord frames and checksums one stored record.
func writeRecord(bw *bufio.Writer, rec string) error {
	var frame [binary.MaxVarintLen64]byte
	if _, err := bw.Write(frame[:binary.PutUvarint(frame[:], uint64(len(rec)))]); err != nil {
		return err
	}
	if _, err := bw.WriteString(rec); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(0, crcTable, []byte(rec)))
	_, err := bw.Write(sum[:])
	return err
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks payload-level decode failures inside LoadSnapshot; the
// record is skipped, never surfaced.
var errCorrupt = errors.New("plancache: corrupt snapshot record")

// LoadSnapshot restores entries from r into the cache through the normal Put
// path (byte budgets and eviction apply). It never fails on corruption: bad
// checksums and undecodable payloads are skipped, an unknown header is
// version skew (nothing restored), and a truncated or frame-corrupted tail
// ends the restore early — each outcome counted in LoadStats. The returned
// error is non-nil only for a real read fault from r itself; even then the
// entries already restored remain valid, so every failure mode yields a
// working cold-or-partial cache.
//
// Structural validation runs on every record before it is admitted: a
// record whose checksum passes but whose content could poison a hit — a
// malformed shape, NaN or negative bookkeeping, trailing bytes — is skipped
// like any other corruption.
func (c *Cache) LoadSnapshot(r io.Reader) (LoadStats, error) {
	var st LoadStats
	br := bufio.NewReader(r)
	head := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Empty or shorter-than-header file: nothing to restore.
			st.Truncated = err == io.ErrUnexpectedEOF
			return st, nil
		}
		return st, err
	}
	if string(head) != snapshotMagic {
		// Version skew or a foreign file; restoring records under another
		// format's framing could only manufacture garbage entries.
		st.Rejected++
		return st, nil
	}
	payload := make([]byte, 0, 1024)
	for {
		size, status, err := readFrameLen(br)
		if err != nil {
			st.Truncated = true
			return st, readFault(err)
		}
		switch status {
		case frameEOF:
			return st, nil // clean end of stream
		case frameLost:
			st.Truncated = true
			return st, nil
		}
		if size > MaxSnapshotRecord {
			// Either the length field itself took the bit flip or a foreign
			// writer produced an oversized record; framing is gone either way.
			st.Rejected++
			st.Truncated = true
			return st, nil
		}
		if uint64(cap(payload)) < size {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			st.Truncated = true
			return st, readFault(err)
		}
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			st.Truncated = true
			return st, readFault(err)
		}
		if err := faultinject.InjectErr(faultinject.SnapshotLoadRecord); err != nil {
			st.Skipped++
			continue
		}
		if binary.LittleEndian.Uint32(sum[:]) != crc32.Checksum(payload, crcTable) {
			st.Skipped++
			continue
		}
		keyLen, nodes, err := checkRecord(payload)
		if err != nil {
			st.Skipped++
			continue
		}
		if !c.putRecord(string(payload), keyLen, nodes) {
			st.Rejected++ // beyond the shard's byte budget
			continue
		}
		st.Loaded++
	}
}

// frameStatus classifies one length-prefix read.
type frameStatus int

const (
	frameOK   frameStatus = iota // size is valid
	frameEOF                     // clean EOF exactly at a record boundary
	frameLost                    // varint cut off or overflowed: framing gone
)

// readFrameLen reads one record's length prefix. A varint cut off by EOF or
// running past 10 bytes means the framing is corrupted — there is no way to
// find the next record — so the caller ends the restore as a truncated tail.
// A non-EOF read error is returned as a fault.
func readFrameLen(br *bufio.Reader) (size uint64, status frameStatus, err error) {
	var shift uint
	for i := 0; ; i++ {
		b, rerr := br.ReadByte()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				if i == 0 {
					return 0, frameEOF, nil
				}
				return 0, frameLost, nil
			}
			return 0, frameLost, rerr
		}
		if i == binary.MaxVarintLen64 || (i == binary.MaxVarintLen64-1 && b > 1) {
			return 0, frameLost, nil // varint overflow
		}
		size |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return size, frameOK, nil
		}
		shift += 7
	}
}

// readFault passes through real IO errors but swallows the EOF family —
// truncation is an expected corruption, not a fault.
func readFault(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// checkRecord validates one checksum-verified payload as a stored record,
// everything a poisoned hit could ride in on, and returns its key length and
// plan node count. The key is nonempty; the cost and cardinality are not NaN
// or negative; the shape is a tree whose root is a nonempty set of at most
// bitset.MaxRelations relations and whose every left operand is a nonempty
// proper subset of its node's set; and nothing follows the shape.
func checkRecord(b []byte) (keyLen, nodes int, err error) {
	key, e, c := readRecord(b)
	root := bitset.Set(c.uvarint())
	if !c.ok || len(key) == 0 || root == 0 || root >= 1<<bitset.MaxRelations {
		return 0, 0, errCorrupt
	}
	if math.IsNaN(e.Cost) || math.IsNaN(e.Cardinality) || e.Cost < 0 || e.Cardinality < 0 {
		return 0, 0, errCorrupt
	}
	if !checkShape(&c, root) || c.off != len(b) {
		return 0, 0, errCorrupt
	}
	return len(key), 2*root.Count() - 1, nil
}

// checkShape reads the subtree of s in preorder, reporting whether every
// left operand is a nonempty proper subset of its node's set. Sets shrink
// at every level, so the recursion is at most bitset.MaxRelations deep.
func checkShape(c *cursor[[]byte], s bitset.Set) bool {
	if s.IsSingleton() {
		return true
	}
	l := bitset.Set(c.uvarint())
	if !c.ok || l == 0 || l == s || l&^s != 0 {
		return false
	}
	return checkShape(c, l) && checkShape(c, s^l)
}

// String renders load stats for logs: "loaded 12 (skipped 1, rejected 0)".
func (s LoadStats) String() string {
	out := fmt.Sprintf("loaded %d (skipped %d, rejected %d", s.Loaded, s.Skipped, s.Rejected)
	if s.Truncated {
		out += ", truncated tail"
	}
	return out + ")"
}
