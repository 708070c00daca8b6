// Command complexviz exports the paper's complexes for visualization:
// Graphviz DOT (1-skeleton, vertices colored by process) or JSON (facet
// list plus statistics).
//
// Usage:
//
//	complexviz -what pseudosphere -n 2 -values 0,1 -format dot | dot -Tpng > fig1.png
//	complexviz -what async -n 2 -f 1 -format json
//	complexviz -what sync -n 2 -k 1
//	complexviz -what semisync -n 2 -k 1 -c1 1 -c2 2 -d 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/core"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

func main() {
	what := flag.String("what", "pseudosphere", "pseudosphere, async, sync, or semisync")
	n := flag.Int("n", 2, "dimension of the process simplex (n+1 processes)")
	values := flag.String("values", "0,1", "pseudosphere value set")
	f := flag.Int("f", 1, "async failure bound")
	k := flag.Int("k", 1, "sync/semisync per-round failure bound")
	c1 := flag.Int("c1", 1, "semisync min step interval")
	c2 := flag.Int("c2", 2, "semisync max step interval")
	d := flag.Int("d", 2, "semisync max delivery delay")
	format := flag.String("format", "dot", "dot or json")
	flag.Parse()
	if err := run(os.Stdout, *what, *n, *values, *f, *k, *c1, *c2, *d, *format); err != nil {
		fmt.Fprintln(os.Stderr, "complexviz:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, what string, n int, values string, f, k, c1, c2, d int, format string) error {
	var (
		c    *topology.Complex
		op   roundop.Operator
		name string
	)
	switch what {
	case "pseudosphere":
		vals := strings.Split(values, ",")
		ps, err := core.Uniform(core.ProcessSimplex(n), vals)
		if err != nil {
			return err
		}
		c, name = ps, fmt.Sprintf("psi_S%d", n)
	case "async":
		op, name = asyncmodel.Params{N: n, F: f}.Operator(), fmt.Sprintf("A1_n%d_f%d", n, f)
	case "sync":
		op, name = syncmodel.Params{PerRound: k, Total: k}.Operator(), fmt.Sprintf("S1_n%d_k%d", n, k)
	case "semisync":
		op, name = semisync.Params{C1: c1, C2: c2, D: d, PerRound: k, Total: k}.Operator(), fmt.Sprintf("M1_n%d_k%d", n, k)
	default:
		return fmt.Errorf("unknown complex kind %q", what)
	}
	if op != nil {
		res, err := roundop.Build(context.Background(), op, core.LabeledSimplex(n), 1, roundop.Options{})
		if err != nil {
			return err
		}
		c = res.Complex
	}

	switch format {
	case "dot":
		fmt.Fprintf(w, "// %s\n", c.DescribeSummary())
		fmt.Fprint(w, c.ToDOT(name))
	case "json":
		data, err := c.ToJSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}
