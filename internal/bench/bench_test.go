package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps experiment smoke tests fast: small n, minimal budget.
func tinyConfig(out *strings.Builder) Config {
	return Config{N: 9, MaxN: 6, Budget: time.Microsecond, Out: out}
}

func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := Run("table1", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 1", "{A, B, C, D}", "241000", "240000"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestRunFig2WithCSV(t *testing.T) {
	var out strings.Builder
	csv := filepath.Join(t.TempDir(), "m.csv")
	if err := Run("fig2", tinyConfig(&out), csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Error("fig2 report missing title")
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 { // header + n=2..6
		t.Errorf("csv lines = %d", len(lines))
	}
	// Appending a second experiment must not duplicate the header.
	if err := Run("fig2", tinyConfig(&out), csv); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(csv)
	if got := strings.Count(string(data), "name,n,model"); got != 1 {
		t.Errorf("csv has %d headers", got)
	}
	if got := len(strings.Split(strings.TrimSpace(string(data)), "\n")); got != 11 {
		t.Errorf("appended csv lines = %d, want 11", got)
	}
}

func TestRunFig5(t *testing.T) {
	var out strings.Builder
	if err := Run("fig5", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "naive × chain") || !strings.Contains(s, "dnl × cycle+3") {
		t.Errorf("fig5 cells missing:\n%s", s)
	}
}

func TestRunFig6(t *testing.T) {
	var out strings.Builder
	if err := Run("fig6", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "th=1e+09") && !strings.Contains(out.String(), "th=1e9") {
		t.Errorf("fig6 thresholds missing:\n%s", out.String())
	}
}

func TestRunCounts(t *testing.T) {
	var out strings.Builder
	if err := Run("counts", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "κ″ evals") || !strings.Contains(s, "chain polynomiality") {
		t.Errorf("counts output malformed:\n%s", s)
	}
}

func TestRunJoinVsCP(t *testing.T) {
	var out strings.Builder
	if err := Run("joinvscp", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"(products)", "chain", "clique", "ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("joinvscp missing %q:\n%s", want, s)
		}
	}
}

func TestRunAblate(t *testing.T) {
	var out strings.Builder
	if err := Run("ablate", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"no nested ifs", "left-deep", "threshold"} {
		if !strings.Contains(s, want) {
			t.Errorf("ablate missing %q:\n%s", want, s)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	var out strings.Builder
	if err := Run("baselines", tinyConfig(&out), ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"blitzsplit (bushy", "Selinger", "Ono–Lohman", "simulated annealing"} {
		if !strings.Contains(s, want) {
			t.Errorf("baselines missing %q:\n%s", want, s)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", tinyConfig(&strings.Builder{}), ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesAllRunnable(t *testing.T) {
	for _, n := range Names() {
		switch n {
		case "fig4":
			continue // covered implicitly; too slow for a unit test even tiny
		}
		var out strings.Builder
		if err := Run(n, tinyConfig(&out), ""); err != nil {
			t.Errorf("experiment %s failed: %v", n, err)
		}
		if out.Len() == 0 {
			t.Errorf("experiment %s produced no output", n)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.n() != 15 || c.maxN() != 15 {
		t.Errorf("defaults: n=%d maxN=%d", c.n(), c.maxN())
	}
	if c.out() == nil {
		t.Error("default out is nil")
	}
}

// TestWriteArtifactRecordsBuild: every BENCH artifact names the build that
// measured it, so a file can be traced to its toolchain and revision.
func TestWriteArtifactRecordsBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeArtifact(path, "test", "go test", "note", []int{1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Build string `json:"build"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.Build, runtime.Version()) {
		t.Errorf("build = %q, want it to name %s", art.Build, runtime.Version())
	}
}
