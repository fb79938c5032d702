// Command blitzbench regenerates the paper's tables and figures.
//
// Usage:
//
//	blitzbench -exp fig2               # Figure 2: Cartesian products vs n
//	blitzbench -exp fig4               # Figure 4: 4-D sensitivity sweep (slow)
//	blitzbench -exp fig5               # Figure 5: the two close-up cells
//	blitzbench -exp fig6               # Figure 6: plan-cost thresholds
//	blitzbench -exp table1             # Table 1: the worked DP example
//	blitzbench -exp counts             # §6.2 execution-count analysis
//	blitzbench -exp joinvscp           # §6.2: 15-way joins vs 15-way products
//	blitzbench -exp ablate             # implementation-trick ablations
//	blitzbench -exp baselines          # blitzsplit vs Selinger/no-CP/stochastic
//	blitzbench -exp parallel           # rank-layer parallel fill: speedup vs workers
//	blitzbench -exp cache              # plan-cache serving: cold vs warm engine
//	blitzbench -exp serve              # closed-loop load against the blitzd stack
//	blitzbench -exp hotpath            # serve hot paths: cache hit + cold fill, before/after
//	blitzbench -exp enumerators        # 3^n scan vs csg–cmp enumerator: speedup by topology
//	blitzbench -exp chaos              # crash safety: kill -9/corrupt/panic a real blitzd
//	blitzbench -exp exec               # vectorized execution throughput + adaptive re-optimization
//	blitzbench -exp cluster            # 3-node sharded cluster vs single node, zipf traffic
//	blitzbench -exp all                # everything above
//
// Flags:
//
//	-n int          relation count for the sweeps (default 15, the paper's)
//	-budget dur     minimum wall time per measured point (default 200ms)
//	-maxn int       top n for fig2 and the parallel experiment (default 15)
//	-parallel int   optimizer worker count for every experiment (0 = serial)
//	-timeout dur    wall-time budget for the whole run; exceeding it exits 3
//	-mem-budget b   refuse up front if the largest DP table exceeds b bytes, e.g. 64MiB (exit 3)
//	-cache          enable the warm engine's plan cache in -exp cache (default true)
//	-cache-bytes b  plan-cache byte budget for -exp cache (0 = engine default)
//	-qps rate       pace the -exp serve load generator at this global rate (0 = flat out)
//	-serve-json p   write the -exp serve measurement artifact (BENCH_serve.json) to p
//	-hotpath-json p write the -exp hotpath measurement artifact (BENCH_hotpath.json) to p
//	-enum-json p    write the -exp enumerators artifact (BENCH_enumerators.json) to p
//	-chaos-json p   write the -exp chaos artifact (BENCH_chaos.json) to p
//	-exec-json p    write the -exp exec artifact (BENCH_exec.json) to p
//	-cluster-json p write the -exp cluster artifact (BENCH_cluster.json) to p
//	-enum-frontier  include the -exp enumerators n=25 clique point (slow)
//	-gate p         gate -exp hotpath against the artifact at p; regressions exit 1
//	-gate-threshold f  allowed ns/op ratio over the gate baseline (default 1.6)
//	-cpuprofile p   write a CPU profile of the run to p (go tool pprof)
//	-memprofile p   write an allocation profile to p on exit
//	-csv path       also write raw measurements as CSV
//	-quiet          suppress per-case progress lines
//	-version        print version and build info, then exit
//
// Exit codes: 0 success, 1 experiment failure, 2 usage error, 3 budget
// exceeded (global timeout fired or memory admission refused the run).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"blitzsplit/internal/bench"
	"blitzsplit/internal/buildinfo"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/units"
)

const (
	exitOK     = 0
	exitError  = 1
	exitUsage  = 2
	exitBudget = 3
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is main minus the process exit, so the exit-code contract is
// testable. The global wall-time watchdog is the one exception: it still
// terminates the whole process, which is precisely its job.
func runMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("blitzbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	exp := fs.String("exp", "", "experiment: fig2|fig4|fig5|fig6|table1|counts|joinvscp|ablate|baselines|parallel|cache|serve|hotpath|enumerators|chaos|exec|cluster|all")
	n := fs.Int("n", 15, "relation count for the §6 sweeps")
	maxN := fs.Int("maxn", 15, "largest n for fig2 and the parallel experiment")
	parallel := fs.Int("parallel", 0, "optimizer worker count (0 = serial fill)")
	budget := fs.Duration("budget", 200*time.Millisecond, "minimum wall time per measured point")
	timeout := fs.Duration("timeout", 0, "wall-time budget for the whole run (0 = none); exceeding it exits 3")
	memBudgetStr := fs.String("mem-budget", "", "byte budget for the largest DP table, e.g. 64MiB (empty = none); refusal exits 3")
	cache := fs.Bool("cache", true, "enable the warm engine's plan cache in -exp cache")
	cacheBytesStr := fs.String("cache-bytes", "", "plan-cache byte budget for -exp cache, e.g. 64MiB (empty = engine default)")
	qps := fs.Float64("qps", 0, "pace the -exp serve load generator at this global request rate (0 = flat out)")
	serveJSON := fs.String("serve-json", "", "write the -exp serve measurement artifact to this path")
	hotpathJSON := fs.String("hotpath-json", "", "write the -exp hotpath measurement artifact to this path")
	enumJSON := fs.String("enum-json", "", "write the -exp enumerators measurement artifact to this path")
	enumFrontier := fs.Bool("enum-frontier", false, "include the -exp enumerators n=25 clique point (~8.5e11 split iterations; slow)")
	chaosJSON := fs.String("chaos-json", "", "write the -exp chaos measurement artifact to this path")
	execJSON := fs.String("exec-json", "", "write the -exp exec measurement artifact to this path")
	clusterJSON := fs.String("cluster-json", "", "write the -exp cluster measurement artifact to this path")
	gateJSON := fs.String("gate", "", "gate -exp hotpath against the artifact at this path; regressions exit 1")
	gateThreshold := fs.Float64("gate-threshold", 0, "allowed ns/op ratio over the -gate baseline (0 = default 1.6)")
	csvPath := fs.String("csv", "", "write raw measurements as CSV to this path")
	quiet := fs.Bool("quiet", false, "suppress per-case progress")
	version := fs.Bool("version", false, "print version and build info, then exit")
	var prof bench.Profile
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Fprintln(out, "blitzbench", buildinfo.String())
		return exitOK
	}
	if *exp == "" {
		fs.Usage()
		return exitUsage
	}
	var memBudget, cacheBytes uint64
	for _, b := range []struct {
		flag string
		val  string
		dst  *uint64
	}{
		{"-mem-budget", *memBudgetStr, &memBudget},
		{"-cache-bytes", *cacheBytesStr, &cacheBytes},
	} {
		if b.val == "" {
			continue
		}
		v, err := units.ParseBytes(b.val)
		if err != nil {
			fmt.Fprintf(errOut, "blitzbench: %s: %v\n", b.flag, err)
			return exitUsage
		}
		*b.dst = v
	}
	// Memory admission: the biggest table any experiment will fill is for
	// max(n, maxn) relations under the worst-case column set (join graph +
	// memoizing model). Refuse before the sweep starts rather than OOM an
	// hour in.
	if memBudget > 0 {
		big := *n
		if *maxN > big {
			big = *maxN
		}
		if fp := core.TableFootprint(big, true, cost.SortMerge{}); fp > memBudget {
			fmt.Fprintln(errOut, "blitzbench: table footprint "+strconv.FormatUint(fp, 10)+
				" B at n="+strconv.Itoa(big)+" exceeds -mem-budget "+strconv.FormatUint(memBudget, 10)+" B")
			return exitBudget
		}
	}
	// Global wall-time watchdog: experiments are long straight-line sweeps,
	// so a hard process deadline is the honest budget — there is no partial
	// result worth salvaging from a half-measured figure.
	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(errOut, "blitzbench: wall-time budget %v exceeded\n", *timeout)
			os.Exit(exitBudget)
		})
	}
	var progress io.Writer = errOut
	if *quiet {
		progress = nil
	}
	cfg := bench.Config{
		N:             *n,
		MaxN:          *maxN,
		Budget:        *budget,
		Progress:      progress,
		Out:           out,
		Parallelism:   *parallel,
		CacheBytes:    cacheBytes,
		CacheDisabled: !*cache,
		ServeQPS:      *qps,
		ServeJSON:     *serveJSON,
		HotpathJSON:   *hotpathJSON,
		GateJSON:      *gateJSON,
		GateThreshold: *gateThreshold,
		EnumJSON:      *enumJSON,
		EnumFrontier:  *enumFrontier,
		ChaosJSON:     *chaosJSON,
		ExecJSON:      *execJSON,
		ClusterJSON:   *clusterJSON,
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(errOut, "blitzbench:", err)
		return exitError
	}
	code := exitOK
	for _, name := range strings.Split(*exp, ",") {
		if e := bench.Run(strings.TrimSpace(name), cfg, *csvPath); e != nil {
			fmt.Fprintln(errOut, "blitzbench:", e)
			code = exitError
		}
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(errOut, "blitzbench:", err)
		if code == exitOK {
			code = exitError
		}
	}
	return code
}
