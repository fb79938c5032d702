// Command genspec generates query-spec JSON files from the paper's Appendix
// workload parameters, for feeding to the blitzsplit CLI.
//
// Usage:
//
//	genspec -topology chain -n 15 -mean 464 -var 0.5 > chain15.json
//	genspec -topology clique -n 10 -mean 100 -var 0 | blitzsplit -model dnl -
//
// Topologies: chain, cycle+3 (n ≥ 9), star, clique, grid (rows×cols via
// -rows), random (spanning tree + -extra edges from -seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genspec:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genspec", flag.ContinueOnError)
	topo := fs.String("topology", "chain", "chain | cycle+3 | star | clique | grid | random")
	n := fs.Int("n", 15, "number of relations")
	mean := fs.Float64("mean", 464, "geometric-mean base cardinality (≥ 1)")
	variability := fs.Float64("var", 0.5, "cardinality variability in [0,1]")
	rows := fs.Int("rows", 3, "grid rows (grid topology; columns = n/rows)")
	extra := fs.Int("extra", 3, "extra edges beyond the spanning tree (random topology)")
	seed := fs.Int64("seed", 1, "seed (random topology)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *n > 30 {
		return fmt.Errorf("n = %d out of range [1,30]", *n)
	}
	if *mean < 1 {
		return fmt.Errorf("mean = %v must be ≥ 1", *mean)
	}
	if *variability < 0 || *variability > 1 {
		return fmt.Errorf("var = %v outside [0,1]", *variability)
	}
	var pairs []joingraph.Pair
	switch *topo {
	case "chain":
		pairs = joingraph.AppendixChainEdges(*n)
	case "cycle+3":
		pairs = joingraph.AppendixCyclePlus3Edges(*n)
	case "star":
		pairs = joingraph.StarEdges(*n, *n-1)
	case "clique":
		pairs = joingraph.CliqueEdges(*n)
	case "grid":
		if *rows < 1 || *n%*rows != 0 {
			return fmt.Errorf("grid needs rows dividing n; got n=%d rows=%d", *n, *rows)
		}
		pairs = joingraph.GridEdges(*rows, *n / *rows)
	case "random":
		pairs = joingraph.RandomConnectedEdges(*n, *extra, *seed)
	default:
		return fmt.Errorf("unknown topology %q", *topo)
	}
	cards := joingraph.CardinalityLadder(*n, *mean, *variability)
	g := joingraph.Build(pairs, cards)

	f := spec.File{}
	for i, c := range cards {
		f.Relations = append(f.Relations, spec.Relation{
			Name:        fmt.Sprintf("R%d", i),
			Cardinality: c,
		})
	}
	for _, e := range g.Edges() {
		f.Joins = append(f.Joins, spec.Join{
			A:           fmt.Sprintf("R%d", e.A),
			B:           fmt.Sprintf("R%d", e.B),
			Selectivity: e.Selectivity,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
