package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blitzsplit/internal/spec"
)

// writeChainSpec writes an n-relation chain spec whose exhaustive search is
// far beyond any millisecond budget for large n.
func writeChainSpec(t *testing.T, n int, card float64) string {
	t.Helper()
	f := spec.File{}
	for i := 0; i < n; i++ {
		f.Relations = append(f.Relations, spec.Relation{
			Name: fmt.Sprintf("T%d", i), Cardinality: card,
		})
	}
	for i := 1; i < n; i++ {
		f.Joins = append(f.Joins, spec.Join{
			A: fmt.Sprintf("T%d", i-1), B: fmt.Sprintf("T%d", i), Selectivity: 0.01,
		})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes drives runMain through each contract code: usage, budget
// (timeout and memory admission), no-plan overflow, and the ladder's
// degraded success.
func TestExitCodes(t *testing.T) {
	chain := writeChainSpec(t, 20, 1000)
	var out, errOut strings.Builder
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{"-example"}, exitOK},
		{"bad flag", []string{"-no-such-flag"}, exitUsage},
		{"missing spec", []string{}, exitUsage},
		{"bad mem-budget", []string{"-mem-budget", "12QB", chain}, exitUsage},
		{"timeout", []string{"-timeout", "10ms", chain}, exitBudget},
		{"mem budget", []string{"-mem-budget", "1K", chain}, exitBudget},
		{"ladder rescues timeout", []string{"-timeout", "30ms", "-ladder", chain}, exitOK},
	}
	for _, c := range cases {
		out.Reset()
		errOut.Reset()
		if got := runMain(c.args, &out, &errOut); got != c.want {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", c.name, got, c.want, errOut.String())
		}
	}
}

// TestNoPlanExitCode: cardinalities whose product overflows the
// single-precision cost limit leave no representable plan — exit 4.
func TestNoPlanExitCode(t *testing.T) {
	f := spec.File{Relations: []spec.Relation{
		{Name: "A", Cardinality: 1e30}, {Name: "B", Cardinality: 1e30},
	}}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overflow.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if got := runMain([]string{path}, &out, &errOut); got != exitNoPlan {
		t.Fatalf("exit = %d, want %d (stderr: %s)", got, exitNoPlan, errOut.String())
	}
}

// TestLadderOutputReportsMode: a degraded ladder run labels its rung in the
// human-readable output; an unbudgeted run reports exhaustive, undegraded.
func TestLadderOutputReportsMode(t *testing.T) {
	chain := writeChainSpec(t, 20, 1000)
	var out, errOut strings.Builder
	if got := runMain([]string{"-timeout", "30ms", "-ladder", chain}, &out, &errOut); got != exitOK {
		t.Fatalf("exit = %d (stderr: %s)", got, errOut.String())
	}
	if s := out.String(); !strings.Contains(s, "mode:") || !strings.Contains(s, "(degraded by budget)") {
		t.Fatalf("degraded output missing mode marker:\n%s", s)
	}

	out.Reset()
	small := writeChainSpec(t, 6, 100)
	if got := runMain([]string{small}, &out, &errOut); got != exitOK {
		t.Fatalf("exit = %d (stderr: %s)", got, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "mode:        exhaustive") || strings.Contains(s, "degraded") {
		t.Fatalf("clean output mislabels mode:\n%s", s)
	}
}
