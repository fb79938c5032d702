package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"blitzsplit/internal/buildinfo"
	"blitzsplit/internal/retry"
	"blitzsplit/internal/workload"
)

// servePolicy is the shared jittered bounded backoff (internal/retry), the
// same policy the cluster's peer forward/fill client applies.
var servePolicy = retry.Policy{}

// serveBody renders a workload case as a POST /v1/optimize JSON document.
func serveBody(c workload.Case) string {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	for i, card := range c.Cards {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"R%d","cardinality":%g}`, i, card)
	}
	b.WriteString(`],"joins":[`)
	if c.Graph != nil {
		for i, e := range c.Graph.Edges() {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"a":"R%d","b":"R%d","selectivity":%g}`, e.A, e.B, e.Selectivity)
		}
	}
	fmt.Fprintf(&b, `],"model":%q}`, c.Model.Name())
	return b.String()
}

// scrapeVars fetches /debug/vars and flattens the numeric entries.
func scrapeVars(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// writeArtifact writes a BENCH_*.json measurement record: the experiment's
// results under a header that names the experiment, the command that
// regenerates the file, the build that measured it, and the host it was
// measured on.
func writeArtifact(path, benchmark, command, note string, results any) error {
	art := struct {
		Benchmark  string `json:"benchmark"`
		Command    string `json:"command"`
		Build      string `json:"build"`
		Date       string `json:"date"`
		Goos       string `json:"goos"`
		Goarch     string `json:"goarch"`
		CPU        string `json:"cpu,omitempty"`
		Gomaxprocs int    `json:"gomaxprocs"`
		Note       string `json:"note"`
		Results    any    `json:"results"`
	}{
		Benchmark:  benchmark,
		Command:    command,
		Build:      buildinfo.String(),
		Date:       time.Now().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Note:       note,
		Results:    results,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel best-effort reads the CPU model name for the artifact header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return ""
}

func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}
