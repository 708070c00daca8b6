// Command experiments regenerates every figure and quantitative result in
// the paper (see DESIGN.md's experiment index, E1-E15 and E32) and prints
// paper-expected versus measured values.
//
// Usage:
//
//	experiments [-id E5] [-markdown] [-cache=false] [-deep]
//	            [-progress] [-debug-addr :6060] [-report out.json]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Connectivity queries run on the memoized homology engine, and
// -cache=false forces every query to recompute. Round complexes are
// built, and every query answered, on one goroutine.
// -deep extends E15 with the large-envelope constructions (minutes of
// work; off by default so test runs stay fast). -cpuprofile and
// -memprofile write pprof profiles for the run.
//
// -progress prints periodic progress lines (facet/schedule counters,
// rates) to stderr, -debug-addr serves live expvar counters and pprof at
// /debug/vars and /debug/pprof/, and -report writes a JSON run report
// (per-experiment wall time, final counters). SIGINT cancels the run at
// the next shard boundary: the tools exit nonzero, and -report still
// records the partial run with "interrupted" set.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"pseudosphere/internal/experiments"
	"pseudosphere/internal/obs"
)

func main() {
	tool := obs.NewTool("experiments", true)
	id := flag.String("id", "", "run a single experiment (e.g. E5); default all")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	cache := flag.Bool("cache", true, "memoize homology by canonical complex hash")
	deep := flag.Bool("deep", false, "include the large-envelope E15 constructions")
	flag.Parse()
	experiments.ConfigureEngine(*cache)
	experiments.SetDeepScaling(*deep)
	os.Exit(tool.Run(*deep, func(ctx context.Context) error {
		return run(ctx, os.Stdout, *id, *markdown)
	}))
}

func run(ctx context.Context, w io.Writer, id string, markdown bool) error {
	tracker := obs.FromContext(ctx)
	all := experiments.All()
	anyRun := false
	mismatches := 0
	for _, e := range all {
		if id != "" && e.ID != id {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		anyRun = true
		stage := tracker.Stage(e.ID)
		table, err := e.Run(ctx)
		stage.End()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if markdown {
			fmt.Fprint(w, experiments.RenderMarkdown(table))
		} else {
			fmt.Fprintln(w, experiments.Render(table))
		}
		if !table.OK {
			mismatches++
		}
	}
	if !anyRun {
		return fmt.Errorf("no experiment named %q", id)
	}
	if hits, misses, entries := experiments.EngineStats(); hits+misses > 0 {
		fmt.Fprintf(w, "homology cache: %d hits, %d misses, %d distinct complexes\n", hits, misses, entries)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d experiment(s) had mismatching rows", mismatches)
	}
	return nil
}
