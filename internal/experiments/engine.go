package experiments

import (
	"context"
	"runtime"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

// conn is the homology engine every experiment's connectivity and Betti
// query routes through. The experiments repeatedly interrogate unions,
// intersections, links, and skeleta of the same round complexes (the
// Mayer–Vietoris sweeps especially), so memoization is on by default and
// the worker budget follows runtime.NumCPU().
var conn = homology.NewEngine(0, homology.NewCache())

// buildWorkers is the worker budget for the parallel round-complex
// constructors; 0 selects runtime.NumCPU(). It shares the -workers knob
// with the homology engine.
var buildWorkers = 0

// ConfigureEngine replaces the shared engine: workers <= 0 selects
// runtime.NumCPU(), and cached=false disables memoization so every query
// recomputes (the configuration the differential benchmarks compare
// against). The same worker budget drives the parallel round-complex
// constructors. Call it before running experiments; it is not synchronized
// with concurrent experiment runs.
func ConfigureEngine(workers int, cached bool) {
	var cache *homology.Cache
	if cached {
		cache = homology.NewCache()
	}
	conn = homology.NewEngine(workers, cache)
	buildWorkers = workers
}

// BuildWorkers resolves the configured construction worker budget.
func BuildWorkers() int {
	if buildWorkers > 0 {
		return buildWorkers
	}
	return runtime.NumCPU()
}

// build constructs op's r-round complex over input on the configured
// construction workers.
func build(ctx context.Context, op roundop.Operator, input topology.Simplex, r int) (*pc.Result, error) {
	return roundop.Build(ctx, op, input, r, roundop.Options{Workers: BuildWorkers()})
}

// buildOverInputs is build over the whole input complex psi(P^n; values):
// the union of the r-round complexes of its facets, whose shared local
// states share vertices because view encodings are canonical.
func buildOverInputs(ctx context.Context, op roundop.Operator, n int, values []string, r int) (*pc.Result, error) {
	res := pc.NewResult()
	for _, s := range core.InputFacets(n, values) {
		sub, err := build(ctx, op, s, r)
		if err != nil {
			return nil, err
		}
		res.Merge(sub)
	}
	return res, nil
}

// deepScaling gates the large-envelope E15 rows (millions of simplexes,
// minutes of construction). Off by default so RunAll stays fast enough for
// the test suite; the experiments CLI enables it with -deep.
var deepScaling = false

// SetDeepScaling toggles the large-envelope E15 constructions.
func SetDeepScaling(on bool) { deepScaling = on }

// EngineStats reports the shared engine's cache counters; all zeros when
// the engine runs uncached.
func EngineStats() (hits, misses uint64, entries int) {
	return conn.CacheStats()
}
