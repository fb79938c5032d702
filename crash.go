package blitzsplit

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"blitzsplit/internal/plancache"
)

// InternalError wraps a panic recovered at the engine boundary. An optimizer
// bug (or an injected fault) surfaces as an ordinary error instead of tearing
// down the process: one request fails, the engine keeps serving. Value is the
// recovered panic value and Stack the goroutine stack captured at the recover
// site.
type InternalError struct {
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("blitzsplit: internal error: optimizer panicked: %v", e.Value)
}

// ErrQuarantined is the sentinel wrapped by *QuarantineError: the query's
// canonical shape has panicked the optimizer DefaultQuarantineThreshold times
// and the engine refuses to run it again. Match with errors.Is.
var ErrQuarantined = errors.New("blitzsplit: query shape quarantined after repeated optimizer panics")

// QuarantineError reports a refused quarantined shape; Strikes is how many
// panics the shape has caused.
type QuarantineError struct {
	Strikes int
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("%v (%d panics)", ErrQuarantined, e.Strikes)
}

func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// ErrCacheDisabled is returned by snapshot operations on an engine whose plan
// cache is disabled: there is nothing to persist or restore.
var ErrCacheDisabled = errors.New("blitzsplit: engine plan cache is disabled")

// SnapshotWriteStats and SnapshotLoadStats describe a snapshot write and
// restore; see Engine.WriteSnapshot and Engine.LoadSnapshot.
type (
	SnapshotWriteStats = plancache.WriteStats
	SnapshotLoadStats  = plancache.LoadStats
)

// SnapshotInfo records the engine's most recent successful snapshot write.
type SnapshotInfo struct {
	// At is when the snapshot finished; zero if none has been written.
	At time.Time
	// Entries and Bytes echo the write's WriteStats.
	Entries int
	Bytes   int64
}

// WriteSnapshot serializes the engine's plan cache to w in the versioned,
// checksummed format of internal/plancache, and records the write in
// Stats().LastSnapshot. Concurrent Optimize traffic keeps flowing: each cache
// shard is locked only long enough to copy its entries.
func (e *Engine) WriteSnapshot(w io.Writer) (SnapshotWriteStats, error) {
	if e.cache == nil {
		return SnapshotWriteStats{}, ErrCacheDisabled
	}
	ws, err := e.cache.WriteSnapshot(w)
	if err == nil {
		e.snap.mu.Lock()
		e.snap.last = SnapshotInfo{At: time.Now(), Entries: ws.Entries, Bytes: ws.Bytes}
		e.snap.mu.Unlock()
	}
	return ws, err
}

// LoadSnapshot restores plan-cache entries from r into the engine's cache and
// records the outcome in Stats().Restore. Corruption is never fatal: bad
// records are skipped, a truncated tail ends the restore early, and the
// engine serves cold for whatever was lost. The returned LoadStats says
// exactly what happened.
func (e *Engine) LoadSnapshot(r io.Reader) (SnapshotLoadStats, error) {
	if e.cache == nil {
		return SnapshotLoadStats{}, ErrCacheDisabled
	}
	ls, err := e.cache.LoadSnapshot(r)
	if err == nil {
		e.snap.mu.Lock()
		e.snap.restore = ls
		e.snap.restored = true
		e.snap.mu.Unlock()
	}
	return ls, err
}

// WriteSnapshotOwned is WriteSnapshot restricted to entries whose canonical
// fingerprint satisfies keep — the cluster's warm-handoff writer, where a
// departing (or newly joined) node streams a peer exactly the shapes the ring
// says that peer owns. Entries whose key predates the fingerprint length
// prefix are unclassifiable and are left out. Unlike WriteSnapshot, a
// filtered write is not recorded in Stats().LastSnapshot: it is a partial
// export for one peer, not the engine's durability snapshot. A nil keep
// writes everything.
func (e *Engine) WriteSnapshotOwned(w io.Writer, keep func(fp []byte) bool) (SnapshotWriteStats, error) {
	if e.cache == nil {
		return SnapshotWriteStats{}, ErrCacheDisabled
	}
	if keep == nil {
		return e.cache.WriteSnapshotFiltered(w, nil)
	}
	return e.cache.WriteSnapshotFiltered(w, func(key string) bool {
		fp, ok := keyFingerprint([]byte(key))
		return ok && keep(fp)
	})
}

// PlanKey computes the plan-cache key and canonical fingerprint that
// Optimize(q, options...) would use, without optimizing anything: the very
// derivation the serve path runs. blitzd calls it once per request and uses
// the result as the request's identity — it coalesces on the key, shards the
// cluster ring on the fingerprint, and names the exact cache entry a peer
// would serve from. Both returned slices are freshly allocated and owned by
// the caller.
func (e *Engine) PlanKey(q *Query, options ...Option) (key, fp []byte, err error) {
	if e.cache == nil {
		return nil, nil, ErrCacheDisabled
	}
	cfg, err := newConfig(options)
	if err != nil {
		return nil, nil, err
	}
	cq, err := q.build()
	if err != nil {
		return nil, nil, err
	}
	sc := e.scratch.Get().(*serveScratch)
	defer e.scratch.Put(sc)
	if err := e.planKey(sc, cq, &cfg.opts); err != nil {
		return nil, nil, err
	}
	return append([]byte(nil), sc.key...), append([]byte(nil), sc.canon.Fingerprint()...), nil
}

// HasPlan reports whether the cache holds an entry under key (as computed by
// PlanKey) without disturbing recency order or the hit/miss counters.
func (e *Engine) HasPlan(key []byte) bool {
	if e.cache == nil {
		return false
	}
	return e.cache.Has(key)
}

// ExportPlan writes the cache entry stored under key to w as a one-record
// snapshot stream — the peer cache-fill payload, restorable on the receiving
// engine with LoadSnapshot. It returns false (and writes nothing) when the
// key is not resident; the cluster layer treats that as an ordinary miss.
func (e *Engine) ExportPlan(w io.Writer, key []byte) (bool, error) {
	if e.cache == nil {
		return false, ErrCacheDisabled
	}
	ok, _, err := e.cache.WriteEntry(w, key)
	return ok, err
}

// recordPanic converts a recovered panic value into an *InternalError,
// counting it and — when the panic happened on a keyed cold run — striking
// the shape toward quarantine.
func (e *Engine) recordPanic(v any, key string) error {
	e.panics.Add(1)
	e.strike(key)
	return &InternalError{Value: v, Stack: debug.Stack()}
}

// maxStrikeShapes bounds the quarantine strike map, so a stream of distinct
// crashing shapes cannot grow it without limit.
const maxStrikeShapes = 4096

// strike records one optimizer panic against a cache key. Reaching the
// quarantine threshold flips the shape to quarantined; later requests for it
// are refused with *QuarantineError instead of re-running the panicking
// search. A new key that would overfill the map first forgets the shapes
// still below the threshold, then, if every entry is quarantined, all of
// them. Forgetting is safe: a forgotten shape's panics are still recovered,
// and it earns quarantine again after DefaultQuarantineThreshold more.
func (e *Engine) strike(key string) {
	if key == "" {
		return
	}
	e.quar.mu.Lock()
	n, ok := e.quar.strikes[key]
	if !ok && len(e.quar.strikes) >= maxStrikeShapes {
		for k, s := range e.quar.strikes {
			if s < DefaultQuarantineThreshold {
				delete(e.quar.strikes, k)
			}
		}
		if len(e.quar.strikes) >= maxStrikeShapes {
			clear(e.quar.strikes)
			e.quar.quarantined = 0
		}
	}
	e.quar.strikes[key] = n + 1
	if n+1 == DefaultQuarantineThreshold {
		e.quar.quarantined++
	}
	e.quar.mu.Unlock()
	// The atomic total is the serve path's fast gate: until a first strike
	// lands, quarantine checks cost one atomic load and no lock.
	e.quar.total.Add(1)
}

// quarantineStrikes returns the strike count for key and whether the shape is
// quarantined. The []byte key avoids allocating on the serve path (the map
// index uses the compiler's zero-copy conversion).
func (e *Engine) quarantineStrikes(key []byte) (int, bool) {
	if e.quar.total.Load() == 0 {
		return 0, false
	}
	e.quar.mu.Lock()
	defer e.quar.mu.Unlock()
	n := e.quar.strikes[string(key)]
	return n, n >= DefaultQuarantineThreshold
}
