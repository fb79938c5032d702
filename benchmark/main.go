// Command benchmark measures blitzd end to end and layer by layer on four
// serve workloads (see README.md). From the repository root:
//
//	bash benchmark/run.sh                          # all four, end to end and traced
//	bash benchmark/run.sh --workload opt-cold --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare base1.json,base2.json head1.json,head2.json
//
// Each run prints its metrics by name and unit, then as its last line one
// JSON object with the keys correct, attempted, failed and metrics. The
// exit status is 0 only when every answer checked was right and every
// workload rule held.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: opt-hot, opt-cold, opt-churn or execute (empty: all four)")
	seed := fs.Int64("seed", 1, "seed of the request streams")
	secs := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", -1, "0: end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	spans := fs.String("spans", "", "directory to write each traced run's spans to, as JSON lines")
	out := fs.String("out", "", "file to write the host and every run's record to, as JSON")
	cmp := fs.String("compare", "", "comma-separated base record files to compare with the head files named by the argument")
	rootFlag := fs.String("root", "", "repository root (default: the current directory or its parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare base1.json,… head1.json,…")
			return 2
		}
		return compareMain(strings.Split(*cmp, ","), strings.Split(fs.Arg(0), ","), stdout, stderr)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	traces := map[int][]bool{-1: {false, true}, 0: {false}, 1: {true}}[*trace]
	if fs.NArg() != 0 || traces == nil || *secs <= 0 {
		fs.Usage()
		return 2
	}
	for _, n := range names {
		if _, err := newTraffic(n, 0); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}

	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	bin, err := buildBlitzd(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b := &bench{bin: bin, seed: *seed, seconds: *secs, spans: *spans, client: newClient()}
	var runs []*runRecord
	for _, n := range names {
		for _, traced := range traces {
			rec, err := b.run(n, traced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			report(stdout, rec)
			runs = append(runs, rec)
		}
	}
	host := collectHost(b.serverProcs)
	fmt.Fprintf(stdout, "# host=%s cpu=%q nproc=%d gomaxprocs client=%d server=%d go=%s commit=%s\n",
		host.Host, host.CPU, host.NProc, host.ClientProcs, host.ServerProcs, host.Go, host.Commit)
	if *out != "" {
		data, err := json.MarshalIndent(recordFile{Host: host, Runs: runs}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}

	result := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: true, Metrics: metricSet{}}
	for _, r := range runs {
		result.Correct = result.Correct && r.Correct
		result.Attempted += r.Attempted
		result.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(runs) > 1 {
				k = r.Workload + "/" + k
			}
			result.Metrics[k] = v
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !result.Correct {
		return 1
	}
	return 0
}

// report prints one run's metrics in declaration order, then its notes and
// problems.
func report(w io.Writer, r *runRecord) {
	kind, defs := "end-to-end", endToEnd
	if r.Trace {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g %s\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-32s %14.6g %% (%d failed of %d attempted)\n", "error_pct",
		pct(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// hostInfo is recorded with every result.
type hostInfo struct {
	Host        string `json:"host"`
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	ClientProcs int    `json:"client_gomaxprocs"`
	ServerProcs int    `json:"server_gomaxprocs"`
	Go          string `json:"go"`
	Commit      string `json:"commit"`
}

// recordFile is what -out writes and -compare reads.
type recordFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runRecord `json:"runs"`
}

func collectHost(serverProcs int) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), ClientProcs: runtime.GOMAXPROCS(0), ServerProcs: serverProcs,
		Go: runtime.Version(), Commit: "unknown"}
	h.Host, _ = os.Hostname()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		settings := map[string]string{}
		for _, s := range bi.Settings {
			settings[s.Key] = s.Value
		}
		if rev := settings["vcs.revision"]; rev != "" {
			h.Commit = rev
			if settings["vcs.modified"] == "true" {
				h.Commit += "-dirty"
			}
		}
	}
	return h
}

// findRoot returns the repository root: the -root flag, or the current
// directory or its parent, whichever holds cmd/blitzd.
func findRoot(flagRoot string) (string, error) {
	candidates := []string{flagRoot}
	if flagRoot == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "blitzd")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("cannot find the repository root (a directory holding cmd/blitzd); pass -root")
}
