package blitzsplit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"blitzsplit/internal/faultinject"
)

// TestEnginePanicRecovered: an optimizer panic surfaces as *InternalError,
// the engine keeps serving, and the panic is counted.
func TestEnginePanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	e := New(EngineOptions{})
	cards, edges := starQuery(5)
	q := permutedQuery(t, cards, edges, identityPerm(5))

	faultinject.Set(faultinject.EngineOptimize, func() { panic("kaboom") })
	_, err := e.Optimize(nil, q)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InternalError", err)
	}
	if fmt.Sprint(ie.Value) != "kaboom" || len(ie.Stack) == 0 {
		t.Errorf("InternalError = {Value:%v Stack:%d bytes}", ie.Value, len(ie.Stack))
	}
	if !strings.Contains(ie.Error(), "kaboom") {
		t.Errorf("Error() = %q, want panic value included", ie.Error())
	}
	faultinject.Reset()

	// The engine survives: the same query now optimizes fine.
	res, err := e.Optimize(nil, q)
	if err != nil || res == nil {
		t.Fatalf("post-panic Optimize: %v", err)
	}
	if got := e.Stats().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
}

// TestEngineQuarantine: after K panics, the shape is refused with
// *QuarantineError; other shapes keep working; stats report the shape.
func TestEngineQuarantine(t *testing.T) {
	defer faultinject.Reset()
	e := New(EngineOptions{}) // default threshold 3
	cards, edges := starQuery(5)
	bad := permutedQuery(t, cards, edges, identityPerm(5))

	faultinject.Set(faultinject.EngineOptimize, func() { panic("crashy shape") })
	for i := 0; i < DefaultQuarantineThreshold; i++ {
		var ie *InternalError
		if _, err := e.Optimize(nil, bad); !errors.As(err, &ie) {
			t.Fatalf("strike %d: err = %v, want *InternalError", i+1, err)
		}
	}
	// Strike K crossed the threshold: the next request is refused without
	// running the optimizer at all (the hook would panic if it ran).
	_, err := e.Optimize(nil, bad)
	var qe *QuarantineError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want *QuarantineError wrapping ErrQuarantined", err)
	}
	if qe.Strikes != DefaultQuarantineThreshold {
		t.Errorf("Strikes = %d, want %d", qe.Strikes, DefaultQuarantineThreshold)
	}
	faultinject.Reset()

	// Still refused with the fault gone — quarantine is sticky.
	if _, err := e.Optimize(nil, bad); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-fault err = %v, want quarantined", err)
	}
	// A different shape is unaffected.
	otherCards, otherEdges := starQuery(4)
	other := permutedQuery(t, otherCards, otherEdges, identityPerm(4))
	if _, err := e.Optimize(nil, other); err != nil {
		t.Fatalf("unrelated shape refused: %v", err)
	}
	st := e.Stats()
	if st.QuarantinedShapes != 1 {
		t.Errorf("QuarantinedShapes = %d, want 1", st.QuarantinedShapes)
	}
	if st.PanicsRecovered != DefaultQuarantineThreshold {
		t.Errorf("PanicsRecovered = %d, want %d", st.PanicsRecovered, DefaultQuarantineThreshold)
	}
}

// TestEngineQuarantineBounded: 10^5 distinct crashing shapes never grow the
// strike map past its cap. A full map forgets shapes below the threshold
// before quarantined ones, and QuarantinedShapes always counts exactly the
// entries at or past the threshold.
func TestEngineQuarantineBounded(t *testing.T) {
	e := New(EngineOptions{DisableCache: true})
	quarantined := func() int {
		e.quar.mu.Lock()
		defer e.quar.mu.Unlock()
		n := 0
		for _, s := range e.quar.strikes {
			if s >= DefaultQuarantineThreshold {
				n++
			}
		}
		return n
	}
	const shapes = 100_000
	for i := 0; i < shapes; i++ {
		key := fmt.Sprintf("shape-%d", i)
		strikes := 1
		if i%7 == 0 {
			strikes = DefaultQuarantineThreshold
		}
		for j := 0; j < strikes; j++ {
			e.strike(key)
			if n := len(e.quar.strikes); n > maxStrikeShapes {
				t.Fatalf("shape %d: strike map holds %d entries, cap %d", i, n, maxStrikeShapes)
			}
		}
		if i%1000 == 0 || i == shapes-1 {
			if got, want := e.Stats().QuarantinedShapes, quarantined(); got != want {
				t.Fatalf("shape %d: QuarantinedShapes = %d, want %d", i, got, want)
			}
		}
	}

	// A full map sheds below-threshold shapes first: a quarantined shape
	// outlives a cap's worth of one-strike shapes behind it.
	e = New(EngineOptions{DisableCache: true})
	for j := 0; j < DefaultQuarantineThreshold; j++ {
		e.strike("crashy")
	}
	for i := 0; i < 2*maxStrikeShapes; i++ {
		e.strike(fmt.Sprintf("once-%d", i))
	}
	if _, out := e.quarantineStrikes([]byte("crashy")); !out {
		t.Error("quarantined shape forgotten while below-threshold shapes remained")
	}
	if got := e.Stats().QuarantinedShapes; got != 1 {
		t.Errorf("QuarantinedShapes = %d, want 1", got)
	}
}

// TestEngineSnapshotRoundTrip: optimize → snapshot → restore into a fresh
// engine → the replayed query is a cache hit, bit-identical to the original.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	src := New(EngineOptions{})
	cards, edges := starQuery(6)
	q := permutedQuery(t, cards, edges, identityPerm(6))
	cold, err := src.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ws, err := src.WriteSnapshot(&buf)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if ws.Entries != 1 {
		t.Fatalf("snapshot holds %d entries, want 1", ws.Entries)
	}
	st := src.Stats()
	if st.LastSnapshot.At.IsZero() || st.LastSnapshot.Entries != 1 || st.LastSnapshot.Bytes != ws.Bytes {
		t.Errorf("LastSnapshot = %+v, want recorded write", st.LastSnapshot)
	}

	dst := New(EngineOptions{})
	ls, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if ls.Loaded != 1 || ls.Skipped != 0 || ls.Rejected != 0 {
		t.Fatalf("LoadStats = %+v, want 1 loaded", ls)
	}
	dstStats := dst.Stats()
	if !dstStats.Restored || dstStats.Restore.Loaded != 1 {
		t.Errorf("Stats().Restore = %+v restored=%v", dstStats.Restore, dstStats.Restored)
	}

	warm, err := dst.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(6)))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("restored engine missed on the snapshotted shape")
	}
	if math.Float64bits(warm.Cost) != math.Float64bits(cold.Cost) ||
		math.Float64bits(warm.Cardinality) != math.Float64bits(cold.Cardinality) ||
		warm.Counters != cold.Counters ||
		warm.Plan.String() != cold.Plan.String() {
		t.Errorf("restored hit differs from cold run:\n cold %v cost=%v\n warm %v cost=%v",
			cold.Plan, cold.Cost, warm.Plan, warm.Cost)
	}
	if err := warm.Verify(); err != nil {
		t.Errorf("restored plan fails Verify: %v", err)
	}
}

// TestEngineSnapshotCacheDisabled: snapshot operations on a cacheless engine
// fail with ErrCacheDisabled.
func TestEngineSnapshotCacheDisabled(t *testing.T) {
	e := New(EngineOptions{DisableCache: true})
	if _, err := e.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("WriteSnapshot err = %v, want ErrCacheDisabled", err)
	}
	if _, err := e.LoadSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("LoadSnapshot err = %v, want ErrCacheDisabled", err)
	}
}

// TestEngineSnapshotCorruptRestoreServesCold: restoring a corrupted snapshot
// loses entries but never errors and never poisons service — the engine
// serves cold and repopulates.
func TestEngineSnapshotCorruptRestoreServesCold(t *testing.T) {
	src := New(EngineOptions{})
	cards, edges := starQuery(6)
	if _, err := src.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(6))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF // flip a payload byte: the record's CRC fails

	dst := New(EngineOptions{})
	ls, err := dst.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadSnapshot on corrupt data: %v", err)
	}
	if ls.Loaded != 0 || ls.Skipped != 1 {
		t.Fatalf("LoadStats = %+v, want the one record skipped", ls)
	}
	res, err := dst.Optimize(nil, permutedQuery(t, cards, edges, identityPerm(6)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("corrupt restore produced a cache hit")
	}
	if err := res.Verify(); err != nil {
		t.Errorf("cold plan fails Verify: %v", err)
	}
}
