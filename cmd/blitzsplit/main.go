// Command blitzsplit optimizes a join-order problem described by a JSON spec
// file and prints the optimal bushy plan.
//
// Usage:
//
//	blitzsplit [flags] query.json
//	blitzsplit [flags] -           # read the spec from stdin
//	blitzsplit -example            # print a sample spec and exit
//
// Flags:
//
//	-model name      cost model: naive | sortmerge | dnl | hash | min(a,b,…)
//	-enumerator e    exact fill strategy: blitz (3^n scan) | ccp (csg–cmp,
//	                 connected graphs only) | auto (topology-aware selection)
//	-leftdeep        restrict the search to left-deep vines
//	-parallel w      fill the DP table with w parallel workers (0 = serial)
//	-threshold v     plan-cost threshold (§6.4); re-optimizes ×1000 on failure
//	-timeout d       wall-time budget (e.g. 50ms); exceeding it exits 3
//	-mem-budget b    DP-table memory budget (e.g. 64MiB); exceeding it exits 3
//	-ladder          degrade to cheaper optimizers instead of failing on budget
//	-algorithms      annotate joins with the winning algorithm (min models)
//	-json            emit the plan as JSON instead of the ASCII tree
//	-counters        print the instrumentation counters
//	-cpuprofile p    write a CPU profile of the run to p (go tool pprof)
//	-memprofile p    write an allocation profile to p on exit
//	-version         print version and build info, then exit
//
// Exit codes: 0 success, 1 generic failure, 2 usage error, 3 budget
// exceeded (timeout, cancellation, or memory admission), 4 no plan within
// the overflow cost limit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"blitzsplit"
	"blitzsplit/internal/bench"
	"blitzsplit/internal/buildinfo"
	"blitzsplit/internal/core"
	"blitzsplit/internal/spec"
	"blitzsplit/internal/units"
)

// Distinct exit codes so scripts and orchestration can react to budget
// failures (retry with a bigger budget, route to a fallback optimizer)
// without parsing stderr.
const (
	exitOK     = 0
	exitError  = 1
	exitUsage  = 2
	exitBudget = 3
	exitNoPlan = 4
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, out, errOut io.Writer) int {
	err := run(args, out)
	if err == nil {
		return exitOK
	}
	fmt.Fprintln(errOut, "blitzsplit:", err)
	return exitCode(err)
}

// exitCode maps an error to the command's exit-code contract.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errUsage):
		return exitUsage
	case errors.Is(err, core.ErrBudgetExceeded):
		return exitBudget
	case errors.Is(err, core.ErrNoPlan):
		return exitNoPlan
	}
	return exitError
}

// errUsage marks command-line misuse (bad flags, wrong arguments).
var errUsage = errors.New("usage error")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("blitzsplit", flag.ContinueOnError)
	modelName := fs.String("model", "naive", "cost model (naive | sortmerge | dnl | hash | min(a,b,…))")
	enumName := fs.String("enumerator", "blitz", "exact fill strategy (blitz | ccp | auto)")
	leftDeep := fs.Bool("leftdeep", false, "restrict search to left-deep vines")
	parallel := fs.Int("parallel", 0, "DP fill worker count (0 = serial)")
	threshold := fs.Float64("threshold", 0, "plan-cost threshold (0 = disabled)")
	timeout := fs.Duration("timeout", 0, "wall-time budget, e.g. 50ms (0 = none)")
	memBudget := fs.String("mem-budget", "", "DP-table memory budget, e.g. 64MiB (empty = none)")
	ladder := fs.Bool("ladder", false, "degrade to cheaper optimizers instead of failing on budget")
	algorithms := fs.Bool("algorithms", false, "annotate joins with the winning physical algorithm")
	asJSON := fs.Bool("json", false, "emit the plan as JSON")
	counters := fs.Bool("counters", false, "print instrumentation counters")
	example := fs.Bool("example", false, "print a sample query spec and exit")
	version := fs.Bool("version", false, "print version and build info, then exit")
	var prof bench.Profile
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "blitzsplit:", err)
		}
	}()
	if *version {
		fmt.Fprintln(out, "blitzsplit", buildinfo.String())
		return nil
	}
	if *example {
		data, err := json.MarshalIndent(spec.Example(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: expected exactly one spec file (got %d args); see -example", errUsage, fs.NArg())
	}
	var f *spec.File
	var err error
	if fs.Arg(0) == "-" {
		data, rerr := io.ReadAll(os.Stdin)
		if rerr != nil {
			return rerr
		}
		f, err = spec.Parse(data)
	} else {
		f, err = spec.Load(fs.Arg(0))
	}
	if err != nil {
		return err
	}

	// Rebuild the spec as a facade query so the budget governance —
	// cooperative deadlines, memory admission, the degradation ladder —
	// drives the optimization.
	q := blitzsplit.NewQuery()
	for _, r := range f.Relations {
		if err := q.AddRelation(r.Name, r.Cardinality); err != nil {
			return err
		}
	}
	for _, j := range f.Joins {
		if err := q.Join(j.A, j.B, j.Selectivity); err != nil {
			return err
		}
	}
	options := []blitzsplit.Option{blitzsplit.WithCostModel(*modelName)}
	enum, err := blitzsplit.ParseEnumerator(*enumName)
	if err != nil {
		return fmt.Errorf("%w: -enumerator: %v", errUsage, err)
	}
	options = append(options, blitzsplit.WithEnumerator(enum))
	if *leftDeep {
		options = append(options, blitzsplit.WithLeftDeep())
	}
	if *parallel > 0 {
		options = append(options, blitzsplit.WithParallelism(*parallel))
	}
	if *threshold > 0 {
		options = append(options, blitzsplit.WithCostThreshold(*threshold))
	}
	if *timeout > 0 {
		options = append(options, blitzsplit.WithTimeout(*timeout))
	}
	if *memBudget != "" {
		b, err := units.ParseBytes(*memBudget)
		if err != nil {
			return fmt.Errorf("%w: -mem-budget: %v", errUsage, err)
		}
		options = append(options, blitzsplit.WithMemoryBudget(b))
	}
	if *ladder {
		options = append(options, blitzsplit.WithDeadlineLadder())
	}
	if *algorithms {
		options = append(options, blitzsplit.WithAlgorithms())
	}
	start := time.Now()
	res, err := q.Optimize(options...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *asJSON {
		data, err := res.Plan.MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
	} else {
		fmt.Fprintf(out, "expression:  %s\n", res.Expression())
		fmt.Fprintf(out, "cost:        %.6g  (model %s)\n", res.Cost, *modelName)
		fmt.Fprintf(out, "cardinality: %.6g\n", res.Cardinality)
		if res.Degraded {
			fmt.Fprintf(out, "mode:        %s (degraded by budget)\n", res.Mode)
		} else {
			fmt.Fprintf(out, "mode:        %s\n", res.Mode)
		}
		fmt.Fprintf(out, "optimized in %v (%d pass(es))\n\n", elapsed, res.Counters.Passes)
		fmt.Fprintln(out, res.Plan)
	}
	if *counters {
		c := res.Counters
		fmt.Fprintf(out, "\ncounters: subsets=%d loop_iters=%d kpp_evals=%d kp_evals=%d cond_hits=%d threshold_skips=%d passes=%d\n",
			c.SubsetsVisited, c.LoopIters, c.KppEvals, c.KpEvals, c.CondHits, c.ThresholdSkips, c.Passes)
	}
	return nil
}
