package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"blitzsplit/internal/workload"
)

// Chaos is the crash-safety experiment: it drives a real blitzd subprocess —
// not an in-process handler — through kill -9/restart cycles, snapshot
// corruption, and injected optimizer panics, and measures what a crash
// actually costs:
//
//   - warm hit rate: after a hard kill and restart, the fraction of the
//     previously-served workload answered from the restored plan cache
//     (claim: ≥ 90% — the snapshot makes restarts warm);
//   - recovery time: process start to first served response;
//   - success rate: every request across every phase must get an expected
//     status (200, or 500/422 in the panic phase) — the daemon never dies.
//
// With ChaosJSON nonempty a BENCH_chaos.json artifact is written there.
func Chaos(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Chaos: kill -9, corrupt snapshots, and injected panics against blitzd ==\n")
	fmt.Fprintf(w, "Claim: snapshots make hard restarts warm (>=90%% hit rate), corruption\n")
	fmt.Fprintf(w, "degrades to cold serving, and panics cost one request, never the process.\n\n")

	bin, cleanup, err := buildBlitzd()
	if err != nil {
		return err
	}
	defer cleanup()

	rng := rand.New(rand.NewSource(2026))
	n := cfg.n()
	if n > 9 {
		n = 9 // cold runs must be quick: the experiment restarts many times
	}
	cases := workload.RandomCases(rng, 12, n, 2, 1e5)
	bodies := make([]string, len(cases))
	for i, c := range cases {
		bodies[i] = serveBody(c)
	}

	dir, err := os.MkdirTemp("", "blitz-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "cache.snap")

	var results []map[string]any
	var total, failed int

	// Phase 1: kill -9 / restart cycles. Cycle 0 is the cold seeding run;
	// every later cycle must come up warm from the snapshot.
	const cycles = 3
	fmt.Fprintf(w, "%8s %10s %10s %12s %14s\n", "cycle", "requests", "hits", "hit rate", "recovery ms")
	for cycle := 0; cycle < cycles; cycle++ {
		d, err := startBlitzd(bin, "-snapshot", snap, "-snapshot-interval", "1h")
		if err != nil {
			return fmt.Errorf("bench: chaos cycle %d: %w", cycle, err)
		}
		recovery := time.Since(d.started)
		hits := 0
		for _, body := range bodies {
			code, resp, err := d.post(body)
			total++
			if err != nil || code != http.StatusOK {
				failed++
				d.kill9()
				return fmt.Errorf("bench: chaos cycle %d: status %d err %v", cycle, code, err)
			}
			if strings.Contains(resp, `"cached":true`) {
				hits++
			}
		}
		rate := float64(hits) / float64(len(bodies))
		fmt.Fprintf(w, "%8d %10d %10d %11.1f%% %14.1f\n",
			cycle, len(bodies), hits, 100*rate, float64(recovery.Microseconds())/1e3)
		results = append(results,
			map[string]any{"case": fmt.Sprintf("chaos/cycle=%d/warm_hit_rate_pct", cycle), "value": round1(100 * rate)},
			map[string]any{"case": fmt.Sprintf("chaos/cycle=%d/recovery_ms", cycle), "value": round1(float64(recovery.Microseconds()) / 1e3)},
		)
		if cycle > 0 && rate < 0.9 {
			d.kill9()
			return fmt.Errorf("bench: chaos cycle %d: warm hit rate %.1f%% < 90%% after kill -9 restart",
				cycle, 100*rate)
		}
		// Snapshot deterministically (SIGHUP), then kill as hard as it gets:
		// the atomic write protocol must leave a complete file behind.
		if err := d.sighupSnapshot(); err != nil {
			d.kill9()
			return fmt.Errorf("bench: chaos cycle %d: %w", cycle, err)
		}
		d.kill9()
	}

	// Phase 2: corrupt the snapshot (flip a byte mid-file) — the daemon must
	// come up, lose at most the damaged records, and serve everything cold
	// or warm without a single failure.
	raw, err := os.ReadFile(snap)
	if err != nil {
		return fmt.Errorf("bench: chaos: read snapshot: %w", err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		return err
	}
	d, err := startBlitzd(bin, "-snapshot", snap)
	if err != nil {
		return fmt.Errorf("bench: chaos corrupt restart: %w", err)
	}
	corruptOK := 0
	for _, body := range bodies {
		code, _, err := d.post(body)
		total++
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		corruptOK++
	}
	d.kill9()
	fmt.Fprintf(w, "\ncorrupt snapshot: %d/%d requests served after a mid-file bit flip\n",
		corruptOK, len(bodies))
	results = append(results, map[string]any{
		"case": "chaos/corrupt/served", "value": corruptOK,
	})
	if corruptOK != len(bodies) {
		return fmt.Errorf("bench: chaos: only %d/%d requests served after snapshot corruption",
			corruptOK, len(bodies))
	}

	// Phase 3: injected panics. Every cold optimization panics; each distinct
	// shape costs a 500 per strike until its quarantine lands at 422. The
	// process must survive all of it.
	d, err = startBlitzd(bin, "-panic-every", "1")
	if err != nil {
		return fmt.Errorf("bench: chaos panic phase: %w", err)
	}
	panics, quarantined := 0, 0
	const strikes = 4 // default quarantine threshold is 3; the 4th answer is 422
	for s := 0; s < strikes; s++ {
		code, _, err := d.post(bodies[0])
		total++
		switch {
		case err != nil:
			failed++
		case code == http.StatusInternalServerError:
			panics++
		case code == http.StatusUnprocessableEntity:
			quarantined++
		default:
			failed++
		}
	}
	alive := d.healthy()
	d.kill9()
	fmt.Fprintf(w, "injected panics: %d recovered as 500, %d refused as 422 (quarantine), daemon alive: %v\n",
		panics, quarantined, alive)
	results = append(results,
		map[string]any{"case": "chaos/panic/recovered_500", "value": panics},
		map[string]any{"case": "chaos/panic/quarantined_422", "value": quarantined},
	)
	if panics != 3 || quarantined != 1 || !alive {
		return fmt.Errorf("bench: chaos: panic phase got %d×500 + %d×422 alive=%v, want 3×500 + 1×422 alive",
			panics, quarantined, alive)
	}

	success := float64(total-failed) / float64(total)
	fmt.Fprintf(w, "\nObserved: %d requests across %d restarts, %.1f%% answered as expected;\n",
		total, cycles+2, 100*success)
	fmt.Fprintf(w, "hard kills come back warm, corruption comes back cold, panics cost one\n")
	fmt.Fprintf(w, "request each until quarantine stops even that.\n")
	results = append(results, map[string]any{"case": "chaos/success_rate_pct", "value": round1(100 * success)})

	if cfg.ChaosJSON != "" {
		return writeArtifact(cfg.ChaosJSON, "blitzbench -exp chaos",
			"go run ./cmd/blitzbench -exp chaos -chaos-json BENCH_chaos.json",
			fmt.Sprintf("Crash-safety harness against a real blitzd subprocess: %d random "+
				"join shapes at n=%d served across kill -9/restart cycles with plan-cache "+
				"snapshots (warm_hit_rate_pct per cycle; cycle 0 is the cold seed), a restart "+
				"from a deliberately corrupted snapshot (served = requests answered 200 after a "+
				"mid-file bit flip), and a -panic-every 1 run where every cold optimization "+
				"panics (3 recovered 500s, then quarantine answers 422). recovery_ms is process "+
				"start to the listening announcement. success_rate_pct counts every request "+
				"that got its expected status across all phases.", len(bodies), n),
			results)
	}
	return nil
}

// buildBlitzd compiles cmd/blitzd into a temp binary; chaos needs a real
// process it can kill -9, not an in-process handler.
func buildBlitzd() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "blitzd-bin-*")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "blitzd")
	cmd := exec.Command("go", "build", "-o", bin, "blitzsplit/cmd/blitzd")
	if out, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("bench: build blitzd: %v\n%s", err, out)
	}
	return bin, cleanup, nil
}

// chaosDaemon is one blitzd subprocess under test.
type chaosDaemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	out     *chaosBuffer
	client  *http.Client
}

type chaosBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *chaosBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *chaosBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// startBlitzd launches the daemon on an ephemeral port and waits for the
// "listening on" address line.
func startBlitzd(bin string, args ...string) (*chaosDaemon, error) {
	d := &chaosDaemon{out: &chaosBuffer{}, client: &http.Client{Timeout: 30 * time.Second}}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	if err := d.waitOutput(" listening on ", 10*time.Second); err != nil {
		d.kill9()
		return nil, err
	}
	s := d.out.String()
	rest := s[strings.Index(s, " listening on ")+len(" listening on "):]
	d.base = "http://" + strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])
	return d, nil
}

func (d *chaosDaemon) waitOutput(substr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !strings.Contains(d.out.String(), substr) {
		if time.Now().After(deadline) {
			return fmt.Errorf("blitzd never printed %q:\n%s", substr, d.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (d *chaosDaemon) post(body string) (int, string, error) {
	resp, err := d.client.Post(d.base+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

func (d *chaosDaemon) healthy() bool {
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// sighupSnapshot asks the daemon for a manual snapshot and waits until it
// reports the write, so a kill -9 immediately after cannot lose it.
func (d *chaosDaemon) sighupSnapshot() error {
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return err
	}
	return d.waitOutput("SIGHUP snapshot", 10*time.Second)
}

// kill9 SIGKILLs the daemon — no drain, no final snapshot, the crash case.
func (d *chaosDaemon) kill9() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}
