package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blitzsplit"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/spec"
)

func writeExampleSpec(t *testing.T) string {
	t.Helper()
	data, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "q.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExampleFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Parse([]byte(out.String())); err != nil {
		t.Errorf("-example output is not a valid spec: %v", err)
	}
}

func TestOptimizeSpec(t *testing.T) {
	path := writeExampleSpec(t)
	var out strings.Builder
	if err := run([]string{"-model", "dnl", "-counters", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"expression:", "cost:", "cardinality:", "counters:", "loop_iters="} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestJSONOutputIsValidPlan(t *testing.T) {
	path := writeExampleSpec(t)
	var out strings.Builder
	if err := run([]string{"-json", "-algorithms", "-model", "min(sortmerge,dnl)", path}, &out); err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromJSON([]byte(out.String()))
	if err != nil {
		t.Fatalf("-json output invalid: %v", err)
	}
	if p.Relations() != 4 {
		t.Errorf("plan covers %d relations", p.Relations())
	}
	annotated := false
	p.Walk(func(n *plan.Node) {
		if n.Algorithm != "" {
			annotated = true
		}
	})
	if !annotated {
		t.Error("-algorithms did not annotate")
	}
}

func TestLeftDeepFlag(t *testing.T) {
	path := writeExampleSpec(t)
	var out strings.Builder
	if err := run([]string{"-json", "-leftdeep", path}, &out); err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromJSON([]byte(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLeftDeep() {
		t.Error("-leftdeep produced a bushy plan")
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("no spec accepted")
	}
	if err := run([]string{"/nonexistent.json"}, &out); err == nil {
		t.Error("missing spec accepted")
	}
	path := writeExampleSpec(t)
	if err := run([]string{"-model", "bogus", path}, &out); err == nil {
		t.Error("bogus model accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "blitzsplit ") {
		t.Errorf("version output = %q", out.String())
	}
}

// disconnectedSpec has two joined pairs with no predicate between them — a
// join graph outside the CCP enumerator's plan space.
const disconnectedSpec = `{
  "relations": [{"name":"A","cardinality":100},{"name":"B","cardinality":200},
                {"name":"C","cardinality":300},{"name":"D","cardinality":400}],
  "joins": [{"a":"A","b":"B","selectivity":0.01},{"a":"C","b":"D","selectivity":0.02}]
}`

func writeDisconnectedSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "disc.json")
	if err := os.WriteFile(path, []byte(disconnectedSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEnumeratorFlag drives the -enumerator grammar and its exit-code
// contract: the three named strategies run, unknown names are usage errors
// (exit 2), an explicit ccp on a disconnected spec is a typed failure
// (exit 1), and auto on the same spec degrades to the blitz scan.
func TestEnumeratorFlag(t *testing.T) {
	path := writeExampleSpec(t)
	for _, tc := range []struct {
		name    string
		wantErr error // nil = success
	}{
		{"blitz", nil},
		{"ccp", nil},
		{"auto", nil},
		{"", nil}, // empty selects the blitz default, matching ParseEnumerator
		{"dpccp", errUsage},
	} {
		var out strings.Builder
		err := run([]string{"-enumerator", tc.name, path}, &out)
		if tc.wantErr == nil && err != nil {
			t.Errorf("-enumerator %s: %v", tc.name, err)
		}
		if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Errorf("-enumerator %q: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	dpath := writeDisconnectedSpec(t)
	var out strings.Builder
	err := run([]string{"-enumerator", "ccp", dpath}, &out)
	if !errors.Is(err, blitzsplit.ErrEnumeratorUnsupported) {
		t.Fatalf("ccp on a disconnected spec: err = %v, want ErrEnumeratorUnsupported", err)
	}
	if got := exitCode(err); got != exitError {
		t.Errorf("exit code = %d, want %d", got, exitError)
	}
	if err := run([]string{"-enumerator", "auto", dpath}, &out); err != nil {
		t.Errorf("auto on a disconnected spec must fall back, got %v", err)
	}
}
