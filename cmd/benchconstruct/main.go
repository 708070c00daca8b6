// Command benchconstruct times the round-complex constructions and the
// crash-schedule enumeration that back the repository's benchmark
// envelope, and optionally records the measurements as a JSON run report
// (the tracked before/after numbers live in BENCH_construction.json at
// the repository root).
//
// Usage:
//
//	benchconstruct [-deep] [-reduce=false] [-report out.json]
//	               [-progress] [-debug-addr :6060]
//
// Every construction, reduction and enumeration runs on one goroutine.
// -deep adds the large n=4 asynchronous instances, including the
// 16^5-facet A^1 n=4 f=4 pseudosphere (1.4M simplexes) that the
// pre-interning string-keyed builder could not construct in reasonable
// time.
//
// Each construction case runs as obs stages of its own: "<case>" (the
// build alone), "<case> hash" (CanonicalHash), "<case> facets"
// (FacetCount, which fills the complex's face table) and, with -reduce
// (default true), "<case> reduce morse" (a GF(2) reduction: coreduction
// over that face table, then the column reduction of the critical cells).
// So the report carries every part of the post-build pass beside the
// construction envelope; the collapse counters (morse_removed,
// morse_critical) land in the report's counter section.
//
// -report serializes the stages (name, wall millis, size/facet/count
// metadata) and the facet/schedule counters as an obs.Report. SIGINT abandons the remaining cases at the next shard
// boundary; -report still records the cases completed so far with
// "interrupted" set, so a partial -deep run leaves a well-formed record.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// labeled builds the (n+1)-process input simplex; the vertices are
// generated in ascending process order, which is the Simplex invariant,
// so no validating constructor is needed.
func labeled(n int) topology.Simplex {
	vs := make(topology.Simplex, n+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: fmt.Sprintf("v%d", i)}
	}
	return vs
}

func main() {
	tool := obs.NewTool("benchconstruct", false)
	deep := flag.Bool("deep", false, "include the large n=4 asynchronous instances")
	reduce := flag.Bool("reduce", true, "time GF(2) reduction after each construction")
	flag.Parse()
	os.Exit(tool.Run(*deep, func(ctx context.Context) error {
		return run(ctx, os.Stdout, *deep, *reduce)
	}))
}

func run(ctx context.Context, w io.Writer, deep bool, reduce bool) error {
	tracker := obs.FromContext(ctx)
	// record times f as one obs stage. f attaches what it measured as
	// stage metadata (the -report serialization is the report plumbing,
	// not a bespoke row type) and returns it as the printed line's tail.
	record := func(name string, f func(stage *obs.Stage) (string, error)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		stage := tracker.Stage(name)
		start := time.Now()
		summary, err := f(stage)
		elapsed := time.Since(start)
		stage.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-40s %12v  %s\n", name, elapsed, summary)
		return nil
	}

	type buildCase struct {
		name string
		op   roundop.Operator
		n, r int
	}
	var builds []buildCase
	asyncCases := []struct{ n, f, r int }{
		{3, 3, 1}, {3, 2, 1}, {2, 1, 2}, {2, 2, 2},
	}
	if deep {
		asyncCases = append(asyncCases,
			struct{ n, f, r int }{4, 2, 1},
			struct{ n, f, r int }{4, 3, 1},
			struct{ n, f, r int }{4, 4, 1})
	}
	for _, c := range asyncCases {
		builds = append(builds, buildCase{fmt.Sprintf("A^%d n=%d f=%d", c.r, c.n, c.f), asyncmodel.Params{N: c.n, F: c.f}.Operator(), c.n, c.r})
	}
	builds = append(builds,
		buildCase{"S^1 n=3 k=3", syncmodel.Params{PerRound: 3, Total: 3}.Operator(), 3, 1},
		buildCase{"S^2 n=3 k=1 f=2", syncmodel.Params{PerRound: 1, Total: 2}.Operator(), 3, 2},
		buildCase{"S^3 n=3 k=1 f=3", syncmodel.Params{PerRound: 1, Total: 3}.Operator(), 3, 3},
		buildCase{"M^1 n=2 k=2 c1=1 c2=2 d=2", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2}.Operator(), 2, 1},
		buildCase{"M^2 n=2 k=1 f=2", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator(), 2, 2},
		buildCase{"IIS^1 n=3", iis.Operator(), 3, 1},
	)
	if deep {
		builds = append(builds, buildCase{"IIS^1 n=4", iis.Operator(), 4, 1})
	}
	type step struct {
		name string
		f    func(stage *obs.Stage) (string, error)
	}
	for _, c := range builds {
		var built *topology.Complex
		steps := []step{
			{c.name, func(stage *obs.Stage) (string, error) {
				res, err := roundop.Build(ctx, c.op, labeled(c.n), c.r, roundop.Options{})
				if err != nil {
					return "", err
				}
				built = res.Complex
				stage.Meta("size", int64(built.Size()))
				return fmt.Sprintf("size=%d", built.Size()), nil
			}},
			{c.name + " hash", func(*obs.Stage) (string, error) {
				return "hash=" + built.CanonicalHash(), nil
			}},
			{c.name + " facets", func(stage *obs.Stage) (string, error) {
				n := built.FacetCount()
				stage.Meta("facets", int64(n))
				return fmt.Sprintf("facets=%d", n), nil
			}},
		}
		if reduce {
			// A fresh uncached engine, so the run really reduces.
			steps = append(steps, step{c.name + " reduce morse", func(*obs.Stage) (string, error) {
				betti, err := homology.NewEngine(1, nil).BettiZ2Ctx(ctx, built)
				return fmt.Sprintf("betti=%v", betti), err
			}})
		}
		for _, st := range steps {
			if err := record(st.name, st.f); err != nil {
				return err
			}
		}
	}
	for _, c := range []struct{ n1, f, maxRound int }{{4, 2, 3}, {3, 2, 2}} {
		name := fmt.Sprintf("EnumerateCrashSchedules(%d,%d,%d)", c.n1, c.f, c.maxRound)
		err := record(name, func(stage *obs.Stage) (string, error) {
			out, err := sim.EnumerateCrashSchedules(ctx, c.n1, c.f, c.maxRound)
			stage.Meta("count", int64(len(out)))
			return fmt.Sprintf("count=%d", len(out)), err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
