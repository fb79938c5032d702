package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

// ExecRow is one measured execution data point in BENCH_exec.json.
type ExecRow struct {
	// Case names the workload ("throughput/n=12" or "adaptive/skew-n=5");
	// Engine names the run ("vectorized", "static", "adaptive").
	Case   string `json:"case"`
	Engine string `json:"engine"`
	// Rows is the result cardinality; RowsProcessed the total rows flowing
	// through the pipeline (scans + intermediates + output) — the numerator
	// of RowsPerSec.
	Rows          int64   `json:"rows"`
	RowsProcessed int64   `json:"rows_processed,omitempty"`
	NsPerOp       float64 `json:"ns_per_op,omitempty"`
	RowsPerSec    float64 `json:"rows_per_sec,omitempty"`
	// IntermediateRows and Reopts describe the adaptive case: materialized
	// join outputs below the root, and replan events taken.
	IntermediateRows int64 `json:"intermediate_rows,omitempty"`
	Reopts           int   `json:"reopts,omitempty"`
}

// execThroughputN and execThroughputRows size the throughput instance: an
// n-relation chain totalling ~10^5 synthesized base rows, selectivity 1/card
// per join so every intermediate stays near one relation's size.
const (
	execThroughputN    = 12
	execThroughputRows = 100_000
)

// Exec measures the vectorized columnar executor's throughput on one
// optimal plan, then demonstrates the adaptive driver cutting intermediate
// rows on a skew-injected workload. With Config.ExecJSON it writes the
// BENCH_exec.json artifact.
func Exec(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Execution: vectorized columnar engine, adaptive re-optimization ==\n")
	fmt.Fprintf(w, "Claim: the vectorized executor runs an optimal 12-relation chain plan over\n")
	fmt.Fprintf(w, "~10^5 base rows in milliseconds, and mid-query re-optimization shrinks\n")
	fmt.Fprintf(w, "intermediate results when estimates lie.\n\n")

	rows, err := execThroughput(cfg)
	if err != nil {
		return err
	}
	arows, err := execAdaptive(cfg)
	if err != nil {
		return err
	}
	rows = append(rows, arows...)

	if cfg.ExecJSON != "" {
		if err := writeExecArtifact(cfg.ExecJSON, rows); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.ExecJSON)
	}
	return nil
}

// execThroughput measures the executor on the chain instance and reports
// rows/s over the rows-processed numerator.
func execThroughput(cfg Config) ([]ExecRow, error) {
	w := cfg.out()
	n := execThroughputN
	card := float64(execThroughputRows / n)
	cards := make([]float64, n)
	g := joingraph.New(n)
	for i := range cards {
		cards[i] = card
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1/card); err != nil {
			return nil, err
		}
	}
	inst, err := engine.Synthesize(cards, g, 1)
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{})
	if err != nil {
		return nil, err
	}
	p := res.Plan

	// One instrumented run pins the numerator: every run scans the same base
	// rows and materializes the same intermediates.
	probe, err := exec.Run(inst, p, exec.Options{})
	if err != nil {
		return nil, err
	}
	var scanned int64
	for i := 0; i < n; i++ {
		scanned += int64(inst.Relations[i].Rows())
	}
	processed := scanned + probe.Stats.IntermediateRows + probe.Rows

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := exec.Count(inst, p, exec.Options{})
			if err == nil && got != probe.Rows {
				err = fmt.Errorf("returned %d rows, expected %d", got, probe.Rows)
			}
			if err != nil {
				panic(fmt.Sprintf("bench: exec vectorized: %v", err))
			}
		}
	})
	ns := float64(r.NsPerOp())
	vec := ExecRow{
		Case:          fmt.Sprintf("throughput/n=%d", n),
		Engine:        "vectorized",
		Rows:          probe.Rows,
		RowsProcessed: processed,
		NsPerOp:       ns,
		RowsPerSec:    float64(processed) / (ns / 1e9),
	}

	fmt.Fprintf(w, "%-18s %-12s %14s %16s %12s\n", "case", "engine", "ns/op", "rows/s", "rows")
	fmt.Fprintf(w, "%-18s %-12s %14.0f %16.0f %12d\n\n", vec.Case, vec.Engine, vec.NsPerOp, vec.RowsPerSec, vec.Rows)
	return []ExecRow{vec}, nil
}

// execAdaptive injects a 4-decade selectivity misestimate into a 5-relation
// chain and compares static execution of the misplanned tree against the
// adaptive driver re-planning mid-query.
func execAdaptive(cfg Config) ([]ExecRow, error) {
	w := cfg.out()
	n := 5
	cards := []float64{20000, 20000, 6000, 6000, 6000}
	const lied, actual = 1.0 / 400_000_000, 1.0 / 400
	mkGraph := func(firstSel float64) (*joingraph.Graph, error) {
		g := joingraph.New(n)
		sels := []float64{firstSel, 1.0 / 6000, 1.0 / 6000, 1.0 / 6000}
		for i := 0; i+1 < n; i++ {
			if err := g.AddEdge(i, i+1, sels[i]); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	truth, err := mkGraph(actual)
	if err != nil {
		return nil, err
	}
	lie, err := mkGraph(lied)
	if err != nil {
		return nil, err
	}
	inst, err := engine.Synthesize(cards, truth, 42)
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(core.Query{Cards: cards, Graph: lie}, core.Options{})
	if err != nil {
		return nil, err
	}
	p := res.Plan

	static, err := exec.Run(inst, p, exec.Options{})
	if err != nil {
		return nil, err
	}
	adaptive, err := exec.RunAdaptive(inst, p, exec.Options{}, exec.AdaptiveOptions{
		Reoptimize: func(gq exec.GroupQuery) (*plan.Node, error) {
			g := joingraph.New(len(gq.Groups))
			for _, e := range gq.Edges {
				if err := g.AddEdge(e.A, e.B, e.Selectivity); err != nil {
					return nil, err
				}
			}
			r, err := baseline.GreedyLeftDeep(gq.Cards, g, cost.Naive{})
			if err != nil {
				return nil, err
			}
			return r.Plan, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if adaptive.Rows != static.Rows {
		return nil, fmt.Errorf("bench: adaptive produced %d rows, static %d", adaptive.Rows, static.Rows)
	}
	replans := 0
	for _, ev := range adaptive.Events {
		if ev.Replanned {
			replans++
		}
	}
	rows := []ExecRow{
		{Case: "adaptive/skew-n=5", Engine: "static", Rows: static.Rows,
			IntermediateRows: static.Stats.IntermediateRows},
		{Case: "adaptive/skew-n=5", Engine: "adaptive", Rows: adaptive.Rows,
			IntermediateRows: adaptive.Stats.IntermediateRows, Reopts: replans},
	}
	fmt.Fprintf(w, "%-18s %-12s %12s %18s %8s\n", "case", "engine", "rows", "intermediate rows", "reopts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-12s %12d %18d %8d\n", r.Case, r.Engine, r.Rows, r.IntermediateRows, r.Reopts)
	}
	if static.Stats.IntermediateRows > 0 {
		fmt.Fprintf(w, "adaptive re-optimization cut intermediate rows %.1fx (%d -> %d) with %d replan(s)\n",
			float64(static.Stats.IntermediateRows)/float64(max64(adaptive.Stats.IntermediateRows, 1)),
			static.Stats.IntermediateRows, adaptive.Stats.IntermediateRows, replans)
	}
	return rows, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// execArtifact is the BENCH_exec.json schema, mirroring the other
// measurement artifacts.
type execArtifact struct {
	Benchmark  string    `json:"benchmark"`
	Command    string    `json:"command"`
	Date       string    `json:"date"`
	Goos       string    `json:"goos"`
	Goarch     string    `json:"goarch"`
	CPU        string    `json:"cpu,omitempty"`
	Gomaxprocs int       `json:"gomaxprocs"`
	Note       string    `json:"note"`
	Results    []ExecRow `json:"results"`
}

func writeExecArtifact(path string, rows []ExecRow) error {
	art := execArtifact{
		Benchmark:  "blitzbench -exp exec",
		Command:    "go run ./cmd/blitzbench -exp exec -exec-json BENCH_exec.json",
		Date:       time.Now().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Note: "throughput/n=12 executes one optimal plan over a 12-relation chain of ~10^5 " +
			"synthesized base rows on the vectorized executor; rows/s divides the rows-processed " +
			"numerator (base scans + intermediates + output) by measured wall time. " +
			"adaptive/skew-n=5 plans a 5-relation chain under a 4-decade " +
			"selectivity underestimate and compares static execution of the bad plan against the " +
			"adaptive driver re-planning mid-query; intermediate_rows is the paper-relevant cost " +
			"of the misestimate.",
		Results: rows,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
