package main

import (
	"bytes"
	"strings"
	"testing"

	"blitzsplit/internal/bench"
)

// The exit-code contract is what orchestration scripts react to; pin it.
func TestRunMainExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"table1 experiment succeeds", []string{"-exp", "table1", "-n", "8", "-budget", "1ms", "-quiet"}, exitOK},
		{"unknown experiment", []string{"-exp", "nosuch", "-quiet"}, exitError},
		{"missing -exp", nil, exitUsage},
		{"bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"memory admission refusal", []string{"-exp", "table1", "-mem-budget", "1", "-quiet"}, exitBudget},
		{"unparseable mem-budget", []string{"-exp", "table1", "-mem-budget", "12parsecs", "-quiet"}, exitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := runMain(tc.args, &out, &errOut); got != tc.want {
				t.Fatalf("runMain(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, errOut.String())
			}
		})
	}
}

// An -n below an experiment's lower bound is a usage error naming the
// bound, reported before any experiment runs, not a panic inside one.
func TestSmallNIsUsageError(t *testing.T) {
	for _, exp := range []string{"fig4", "fig5", "fig6", "counts", "joinvscp", "ablate", "baselines", "all", "table1, counts"} {
		var out, errOut bytes.Buffer
		if got := runMain([]string{"-exp", exp, "-n", "8", "-quiet"}, &out, &errOut); got != exitUsage {
			t.Fatalf("-exp %s -n 8: exit %d, want %d\nstderr: %s", exp, got, exitUsage, errOut.String())
		}
		if !strings.Contains(errOut.String(), "needs -n ≥ 9") || out.Len() != 0 {
			t.Errorf("-exp %s -n 8: stdout %q, stderr %q; want only a usage error naming 9", exp, out.String(), errOut.String())
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := runMain([]string{"-version"}, &out, &errOut); got != exitOK {
		t.Fatalf("exit = %d, want %d", got, exitOK)
	}
	if !strings.HasPrefix(out.String(), "blitzbench ") {
		t.Errorf("version output = %q", out.String())
	}
}

// The -exp help lists every experiment bench.Run accepts, so none is
// reachable only by reading the source.
func TestHelpListsEveryExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := runMain([]string{"-h"}, &out, &errOut); got != exitUsage {
		t.Fatalf("exit = %d, want %d", got, exitUsage)
	}
	_, list, ok := strings.Cut(errOut.String(), "experiment: ")
	if !ok {
		t.Fatalf("help has no -exp experiment list:\n%s", errOut.String())
	}
	listed := map[string]bool{}
	for _, name := range strings.Split(strings.Fields(list)[0], "|") {
		listed[name] = true
	}
	for _, name := range append(bench.Names(), "all") {
		if !listed[name] {
			t.Errorf("-exp help omits %q:\n%s", name, errOut.String())
		}
	}
}
