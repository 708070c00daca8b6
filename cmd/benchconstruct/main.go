// Command benchconstruct times the round-complex constructions and the
// crash-schedule enumeration that back the repository's benchmark
// envelope, and optionally records the measurements as a JSON run report
// (the tracked before/after numbers live in BENCH_construction.json at
// the repository root).
//
// Usage:
//
//	benchconstruct [-workers 4] [-deep] [-report out.json]
//	               [-progress] [-debug-addr :6060]
//
// -workers sets the constructor worker pool (0 = NumCPU; 1 = serial).
// -deep adds the large n=4 asynchronous instances, including the
// 16^5-facet A^1 n=4 f=4 pseudosphere (1.4M simplexes) that the
// pre-interning string-keyed builder could not construct in reasonable
// time.
//
// -reduce (default true) follows every constructed complex with two
// GF(2) reduction stages — "<case> reduce plain" (coreduction disabled)
// and "<case> reduce morse" (the default engine) — so the report carries
// the before/after numbers for the Morse preprocessing pass alongside
// the construction envelope; the collapse counters (morse_removed,
// morse_critical) land in the report's counter section.
//
// Each case runs as one obs stage; -report serializes the stages (name,
// wall millis, size/facet/count metadata) and the facet/schedule counters
// as an obs.Report. SIGINT abandons the remaining cases at the next shard
// boundary; -report still records the cases completed so far with
// "interrupted" set, so a partial -deep run leaves a well-formed record.
// -json is an alias for -report, kept for the documented regeneration
// command lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
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
	os.Exit(realMain())
}

func realMain() int {
	workers := flag.Int("workers", 0, "constructor worker goroutines (0 = NumCPU, 1 = serial)")
	deep := flag.Bool("deep", false, "include the large n=4 asynchronous instances")
	reduce := flag.Bool("reduce", true, "time GF(2) reduction (plain vs morse) after each construction")
	reportPath := flag.String("report", "", "write the measurements as a JSON run report to this file")
	jsonOut := flag.String("json", "", "alias for -report")
	progress := flag.Bool("progress", false, "print periodic progress lines to stderr")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. :6060)")
	flag.Parse()
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	out := *reportPath
	if out == "" {
		out = *jsonOut
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tracker := obs.NewTracker()
	ctx = obs.WithTracker(ctx, tracker)
	if *progress {
		rep := tracker.StartProgress(os.Stderr, 2*time.Second)
		defer rep.Stop()
	}
	if *debugAddr != "" {
		tracker.PublishExpvar("benchconstruct.counters", "benchconstruct.stages")
		ds, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchconstruct:", err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "benchconstruct: debug server at http://%s/debug/vars\n", ds.Addr)
	}

	err := run(ctx, os.Stdout, w, *deep, *reduce)
	if out != "" {
		rep := tracker.Snapshot("benchconstruct")
		rep.Workers = w
		rep.Deep = *deep
		rep.Interrupted = ctx.Err() != nil
		if werr := rep.WriteFile(out); werr != nil {
			fmt.Fprintln(os.Stderr, "benchconstruct:", werr)
			return 1
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "benchconstruct: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "benchconstruct:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, w io.Writer, workers int, deep bool, reduce bool) error {
	tracker := obs.FromContext(ctx)
	// record times one case as an obs stage, attaching the measured sizes
	// as stage metadata — the -report serialization is the report plumbing,
	// not a bespoke row type.
	record := func(name string, f func() (size, facets, count int, err error)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		stage := tracker.Stage(name)
		start := time.Now()
		size, facets, count, err := f()
		elapsed := time.Since(start)
		if err != nil {
			stage.End()
			return fmt.Errorf("%s: %w", name, err)
		}
		if count > 0 {
			stage.Meta("count", int64(count))
			fmt.Fprintf(w, "%-40s %12v  count=%d\n", name, elapsed, count)
		} else {
			stage.Meta("size", int64(size)).Meta("facets", int64(facets))
			fmt.Fprintf(w, "%-40s %12v  size=%d facets=%d\n", name, elapsed, size, facets)
		}
		stage.End()
		return nil
	}
	// built carries the most recently constructed complex from a case's
	// closure to the reduction stages that follow it.
	var built *topology.Complex
	sized := func(res *pc.Result, err error) (int, int, int, error) {
		if err != nil {
			return 0, 0, 0, err
		}
		built = res.Complex
		return res.Complex.Size(), res.Complex.FacetCount(), 0, nil
	}
	// reduceCase times the GF(2) Betti computation over the just-built
	// complex twice — coreduction off, then on (the engine default) — as
	// two stages riding the same case name; fresh uncached engines so
	// every run really reduces.
	reduceCase := func(name string) error {
		c := built
		built = nil
		if !reduce || c == nil {
			return nil
		}
		for _, mode := range []struct {
			label   string
			noMorse bool
		}{{"plain", true}, {"morse", false}} {
			if err := ctx.Err(); err != nil {
				return err
			}
			e := homology.NewEngine(workers, nil)
			e.DisableMorse = mode.noMorse
			sname := name + " reduce " + mode.label
			stage := tracker.Stage(sname)
			start := time.Now()
			betti, err := e.BettiZ2Ctx(ctx, c)
			elapsed := time.Since(start)
			stage.End()
			if err != nil {
				return fmt.Errorf("%s: %w", sname, err)
			}
			fmt.Fprintf(w, "%-40s %12v  betti=%v\n", sname, elapsed, betti)
		}
		return nil
	}

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
		c := c
		name := fmt.Sprintf("A^%d n=%d f=%d", c.r, c.n, c.f)
		err := record(name, func() (int, int, int, error) {
			return sized(asyncmodel.RoundsParallelCtx(ctx, labeled(c.n), asyncmodel.Params{N: c.n, F: c.f}, c.r, workers))
		})
		if err != nil {
			return err
		}
		if err := reduceCase(name); err != nil {
			return err
		}
	}
	cases := []struct {
		name string
		f    func() (int, int, int, error)
	}{
		{"S^1 n=3 k=3", func() (int, int, int, error) {
			return sized(syncmodel.OneRoundParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 3, Total: 3}, workers))
		}},
		{"S^2 n=3 k=1 f=2", func() (int, int, int, error) {
			return sized(syncmodel.RoundsParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 1, Total: 2}, 2, workers))
		}},
		{"S^3 n=3 k=1 f=3", func() (int, int, int, error) {
			return sized(syncmodel.RoundsParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 1, Total: 3}, 3, workers))
		}},
		{"M^1 n=2 k=2 c1=1 c2=2 d=2", func() (int, int, int, error) {
			return sized(semisync.OneRoundParallelCtx(ctx, labeled(2), semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2}, workers))
		}},
		{"M^2 n=2 k=1 f=2", func() (int, int, int, error) {
			return sized(semisync.RoundsParallelCtx(ctx, labeled(2), semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}, 2, workers))
		}},
		{"IIS^1 n=3", func() (int, int, int, error) {
			res := iis.OneRound(labeled(3))
			built = res.Complex
			return res.Complex.Size(), res.Complex.FacetCount(), 0, nil
		}},
	}
	if deep {
		cases = append(cases, struct {
			name string
			f    func() (int, int, int, error)
		}{"IIS^1 n=4", func() (int, int, int, error) {
			res := iis.OneRound(labeled(4))
			built = res.Complex
			return res.Complex.Size(), res.Complex.FacetCount(), 0, nil
		}})
	}
	cases = append(cases,
		struct {
			name string
			f    func() (int, int, int, error)
		}{"EnumerateCrashSchedules(4,2,3)", func() (int, int, int, error) {
			out, err := sim.EnumerateCrashSchedulesParallelCtx(ctx, 4, 2, 3, workers)
			return 0, 0, len(out), err
		}},
		struct {
			name string
			f    func() (int, int, int, error)
		}{"EnumerateCrashSchedules(3,2,2)", func() (int, int, int, error) {
			out, err := sim.EnumerateCrashSchedulesParallelCtx(ctx, 3, 2, 2, workers)
			return 0, 0, len(out), err
		}},
	)
	for _, c := range cases {
		if err := record(c.name, c.f); err != nil {
			return err
		}
		if err := reduceCase(c.name); err != nil {
			return err
		}
	}
	return nil
}
