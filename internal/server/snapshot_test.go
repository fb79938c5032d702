package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blitzsplit"
	"blitzsplit/internal/faultinject"
)

// TestSnapshotWarmRestart: serve → snapshot → "restart" (fresh server on the
// same path) → the replayed query is a warm cache hit.
func TestSnapshotWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")

	s1, ts1 := newTestServer(t, Config{SnapshotPath: path})
	code, b := postOptimize(t, ts1.URL, chainBody(5, 2000))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	ws, err := s1.SnapshotNow()
	if err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if ws.Entries != 1 {
		t.Fatalf("snapshot wrote %d entries, want 1", ws.Entries)
	}

	s2, ts2 := newTestServer(t, Config{SnapshotPath: path})
	ls, err := s2.RestoreSnapshot()
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if ls.Loaded != 1 {
		t.Fatalf("restored %d entries, want 1: %v", ls.Loaded, ls)
	}
	code, b = postOptimize(t, ts2.URL, chainBody(5, 2000))
	if code != http.StatusOK {
		t.Fatalf("warm status = %d: %s", code, b)
	}
	if r := decodeResponse(t, b); !r.Cached {
		t.Error("restarted server missed on the snapshotted shape")
	}
}

// TestSnapshotRestoreMissingAndCorrupt: a missing file is a clean cold start;
// a corrupt file restores nothing but serving still works.
func TestSnapshotRestoreMissingAndCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s, ts := newTestServer(t, Config{SnapshotPath: path})
	if ls, err := s.RestoreSnapshot(); err != nil || ls.Loaded != 0 {
		t.Fatalf("missing-file restore = %v, %v; want clean zero", ls, err)
	}

	if err := os.WriteFile(path, []byte("bzsnap1\x00garbage-records-here"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{SnapshotPath: path})
	ls, err := s2.RestoreSnapshot()
	if err != nil {
		t.Fatalf("corrupt restore errored: %v", err)
	}
	if ls.Loaded != 0 {
		t.Fatalf("loaded %d from garbage", ls.Loaded)
	}
	if code, b := postOptimize(t, ts2.URL, chainBody(4, 700)); code != http.StatusOK {
		t.Fatalf("serving after corrupt restore: %d %s", code, b)
	}
	_ = ts
}

// TestSnapshotLoop: the periodic loop writes the file without manual calls.
func TestSnapshotLoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s, ts := newTestServer(t, Config{SnapshotPath: path, SnapshotInterval: 5 * time.Millisecond})
	if code, b := postOptimize(t, ts.URL, chainBody(5, 3000)); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	stop := s.StartSnapshots(func(err error) { t.Errorf("snapshot loop: %v", err) })
	waitFor(t, 2*time.Second, func() bool {
		_, err := os.Stat(path)
		return err == nil
	}, "periodic snapshot to appear")
	stop()
	stop() // idempotent

	st := s.Engine().Stats()
	if st.LastSnapshot.At.IsZero() || st.LastSnapshot.Entries != 1 {
		t.Errorf("LastSnapshot = %+v, want one recorded entry", st.LastSnapshot)
	}
}

// TestSnapshotNoPath: snapshot operations without a configured path are
// explicit errors (SnapshotNow/Restore) or no-ops (StartSnapshots).
func TestSnapshotNoPath(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.SnapshotNow(); err != ErrNoSnapshotPath {
		t.Errorf("SnapshotNow err = %v, want ErrNoSnapshotPath", err)
	}
	if _, err := s.RestoreSnapshot(); err != ErrNoSnapshotPath {
		t.Errorf("RestoreSnapshot err = %v, want ErrNoSnapshotPath", err)
	}
	stop := s.StartSnapshots(nil)
	stop()
}

// TestPanicIsolation: an injected optimizer panic answers 500 with the panic
// in the body; the server survives and the counters record it.
func TestPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{})

	faultinject.Set(faultinject.EngineOptimize, func() { panic("chaos-panic") })
	code, b := postOptimize(t, ts.URL, chainBody(5, 4000))
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", code, b)
	}
	if !strings.Contains(string(b), "chaos-panic") {
		t.Errorf("body %s does not surface the panic", b)
	}
	faultinject.Reset()

	if code, b = postOptimize(t, ts.URL, chainBody(5, 4000)); code != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", code, b)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := s.Engine().Stats().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
}

// TestHandlerPanicIsolation: a panic outside the engine — at the handler
// boundary every POST endpoint shares — answers 500 and keeps the server
// alive.
func TestHandlerPanicIsolation(t *testing.T) {
	for _, ep := range []struct{ name, path, body string }{
		{"optimize", "/v1/optimize", chainBody(4, 500)},
		{"batch", "/v1/optimize/batch", `{"queries":[` + chainBody(4, 500) + `]}`},
		{"execute", "/v1/execute", withOpts(chainBody(4, 500), `"seed":1`)},
	} {
		t.Run(ep.name, func(t *testing.T) {
			defer faultinject.Reset()
			s, ts := newTestServer(t, Config{})
			faultinject.Set(faultinject.ServerRequest, func() { panic("handler-panic") })
			code, b := postPath(t, ts.URL, ep.path, ep.body)
			faultinject.Reset()
			if code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500: %s", code, b)
			}
			if got := s.HandlerPanics(); got != 1 {
				t.Errorf("HandlerPanics = %d, want 1", got)
			}
			if code, b := postPath(t, ts.URL, ep.path, ep.body); code != http.StatusOK {
				t.Fatalf("server did not survive the handler panic: %d %s", code, b)
			}
		})
	}
}

// TestQuarantineOver422: a shape that keeps panicking is eventually refused
// with 422 — without re-running the crashing optimization.
func TestQuarantineOver422(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{})
	faultinject.Set(faultinject.EngineOptimize, func() { panic("always") })
	for i := 0; i < blitzsplit.DefaultQuarantineThreshold; i++ {
		if code, b := postOptimize(t, ts.URL, chainBody(6, 9000)); code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status = %d: %s", i+1, code, b)
		}
	}
	code, b := postOptimize(t, ts.URL, chainBody(6, 9000))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined status = %d, want 422: %s", code, b)
	}
	if !strings.Contains(string(b), "quarantined") {
		t.Errorf("body %s does not mention quarantine", b)
	}
	faultinject.Reset()
	// Sticky even with the fault cleared; an isomorphic relabeling of the
	// shape is refused too (the quarantine keys on the canonical form).
	if code, _ := postOptimize(t, ts.URL, chainBody(6, 9000)); code != http.StatusUnprocessableEntity {
		t.Fatalf("post-fault status = %d, want 422", code)
	}
	if got := s.Engine().Stats().QuarantinedShapes; got != 1 {
		t.Errorf("QuarantinedShapes = %d, want 1", got)
	}
	// Unrelated shapes serve fine.
	if code, b := postOptimize(t, ts.URL, chainBody(5, 1234)); code != http.StatusOK {
		t.Fatalf("unrelated shape: %d %s", code, b)
	}
}

// TestSnapshotMetricsExposed: the snapshot and panic series appear on
// /metrics with the expected values.
func TestSnapshotMetricsExposed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s, ts := newTestServer(t, Config{SnapshotPath: path})
	if code, b := postOptimize(t, ts.URL, chainBody(5, 5000)); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, b)
	}
	if _, err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"blitzd_snapshot_last_entries 1",
		"blitzd_snapshot_last_bytes",
		"blitzd_snapshot_age_seconds",
		"blitzd_snapshot_restored_entries 0",
		"blitzd_snapshot_restore_skipped 0",
		"blitzd_panics_recovered_total 0",
		"blitzd_quarantined_shapes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
