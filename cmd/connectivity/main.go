// Command connectivity builds the r-round protocol complex of a
// registered model — or of an inline model spec loaded from disk — and
// reports its connectivity against the paper's prediction.
//
// Usage:
//
//	connectivity -model async -n 2 -f 1 -r 1 [-m 2]
//	connectivity -model sync -n 3 -k 1 -r 2
//	connectivity -model semisync -n 2 -k 1 -r 1 -c1 1 -c2 2 -d 2
//	connectivity -model custom -n 3 -k 1 -r 1
//	connectivity -model iis -n 2 -r 1
//	connectivity -spec adversary.json
//
// Every model resolves through the internal/modelspec registry — the
// same lookup the server uses, so a tuple tabulated here shares its
// canonical identity with the service's cache keys. The async, sync, and
// semisync presets print the single-complex report with the paper's
// lemma targets; custom, iis, and -spec runs print a connectivity table
// with one row per participating face dimension.
//
// -spec loads a modelspec JSON document: either a preset form
// ({"name": "sync", "params": {...}}) or an explicit per-round adversary
// (crash budgets, or directed communication graphs with an optional
// round schedule) — the same dialect the server's POST endpoints accept.
//
// The round complex is built and queried on one goroutine, by the
// memoized homology engine (-cache, default on). -cpuprofile and
// -memprofile write pprof profiles for the run.
//
// -progress prints periodic counter lines to stderr, -debug-addr serves
// live expvar and pprof, and -report writes a JSON run report. SIGINT
// cancels construction and reduction at the next shard boundary; -report
// still records the partial run with "interrupted" set.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/semisync"
)

type config struct {
	model      string
	spec       string
	n, m, f, k int
	r          int
	c1, c2, d  int
	cache      bool
}

func main() {
	tool := obs.NewTool("connectivity", true)
	var cfg config
	flag.StringVar(&cfg.model, "model", "async", "registered model name (async, custom, iis, semisync, sync)")
	flag.StringVar(&cfg.spec, "spec", "", "tabulate an inline model spec (JSON file) instead of -model")
	flag.IntVar(&cfg.n, "n", 2, "dimension of the full process simplex (n+1 processes)")
	flag.IntVar(&cfg.m, "m", -1, "participating face dimension (default n)")
	flag.IntVar(&cfg.f, "f", 1, "total failure bound (async: the only bound)")
	flag.IntVar(&cfg.k, "k", 1, "per-round failure bound (sync/semisync)")
	flag.IntVar(&cfg.r, "r", 1, "number of rounds")
	flag.IntVar(&cfg.c1, "c1", 1, "semisync: min step interval")
	flag.IntVar(&cfg.c2, "c2", 2, "semisync: max step interval")
	flag.IntVar(&cfg.d, "d", 2, "semisync: max delivery delay")
	flag.BoolVar(&cfg.cache, "cache", true, "memoize homology by canonical complex hash")
	flag.Parse()
	if cfg.spec != "" {
		modelSet := false
		flag.Visit(func(f *flag.Flag) { modelSet = modelSet || f.Name == "model" })
		if modelSet {
			fmt.Fprintln(os.Stderr, "connectivity: -spec and -model are mutually exclusive")
			os.Exit(1)
		}
	}
	os.Exit(tool.Run(false, func(ctx context.Context) error {
		return run(ctx, os.Stdout, cfg)
	}))
}

// query renders the flag values in the registry's query form — the same
// parse path the server's GET endpoints use, so the CLI accepts exactly
// the tuples the service does.
func (cfg config) query() url.Values {
	q := url.Values{}
	q.Set("model", cfg.model)
	q.Set("n", strconv.Itoa(cfg.n))
	q.Set("f", strconv.Itoa(cfg.f))
	q.Set("k", strconv.Itoa(cfg.k))
	q.Set("r", strconv.Itoa(cfg.r))
	q.Set("c1", strconv.Itoa(cfg.c1))
	q.Set("c2", strconv.Itoa(cfg.c2))
	q.Set("d", strconv.Itoa(cfg.d))
	if cfg.m >= 0 {
		q.Set("m", strconv.Itoa(cfg.m))
	}
	return q
}

func run(ctx context.Context, w io.Writer, cfg config) error {
	if cfg.spec != "" {
		return runSpec(ctx, w, cfg)
	}
	inst, err := modelspec.FromQuery(cfg.query())
	if err != nil {
		return err
	}
	switch cfg.model {
	case "custom", "iis":
		// Table presets: connectivity per participating face dimension.
		return runTable(ctx, w, cfg, tableHeader(cfg), inst.M, func(m int) (*modelspec.Instance, error) {
			q := cfg.query()
			q.Set("m", strconv.Itoa(m))
			return modelspec.FromQuery(q)
		}, presetPrediction(cfg))
	default:
		return runReport(ctx, w, cfg, inst)
	}
}

// runSpec loads a modelspec document from disk and tabulates it — the
// CLI twin of the server's POST inline-spec form, sharing its parser,
// validation, and registry compilation.
func runSpec(ctx context.Context, w io.Writer, cfg config) error {
	data, err := os.ReadFile(cfg.spec)
	if err != nil {
		return err
	}
	spec, err := modelspec.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.spec, err)
	}
	inst, err := spec.Compile()
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.spec, err)
	}
	header := fmt.Sprintf("%s  (model %s, %d processes, r=%d)", inst.Key, inst.Model, inst.N+1, inst.R)
	return runTable(ctx, w, cfg, header, inst.M, func(m int) (*modelspec.Instance, error) {
		return specAt(spec, m)
	}, nil)
}

// specAt re-compiles a parsed spec at participating face dimension m:
// preset forms override the m parameter, adversary forms the input_dim.
func specAt(spec *modelspec.Spec, m int) (*modelspec.Instance, error) {
	at := *spec
	if at.Name != "" {
		params := make(map[string]int, len(at.Params)+1)
		for k, v := range at.Params {
			params[k] = v
		}
		params["m"] = m
		at.Params = params
	} else {
		at.InputDim = &m
	}
	return at.Compile()
}

// runReport prints the single-complex report for the paper-target
// presets: complex, connectivity, and the lemma's prediction. The
// presentation — names and targets from the paper — is the CLI's own;
// construction goes through the compiled instance like everywhere else.
func runReport(ctx context.Context, w io.Writer, cfg config, inst *modelspec.Instance) error {
	tracker := obs.FromContext(ctx)

	var complexName, condition string
	var target int
	switch inst.Model {
	case "async":
		complexName = fmt.Sprintf("A^%d(S^%d), n=%d f=%d", inst.R, inst.M, inst.N, cfg.f)
		target = inst.M - (inst.N - cfg.f) - 1
		condition = "Lemma 12"
	case "sync":
		complexName = fmt.Sprintf("S^%d(S^%d), n=%d k=%d", inst.R, inst.M, inst.N, cfg.k)
		target = inst.M - (inst.N - cfg.k) - 1
		condition = fmt.Sprintf("Lemma 17 (requires n >= rk+k = %d)", inst.R*cfg.k+cfg.k)
	case "semisync":
		p := semisync.Params{C1: cfg.c1, C2: cfg.c2, D: cfg.d, PerRound: cfg.k, Total: inst.R * cfg.k}
		complexName = fmt.Sprintf("M^%d(S^%d), n=%d k=%d p=%d", inst.R, inst.M, inst.N, cfg.k, p.Micro())
		target = inst.M - (inst.N - cfg.k) - 1
		condition = fmt.Sprintf("Lemma 21 (requires n >= (r+1)k = %d)", (inst.R+1)*cfg.k)
	default:
		return fmt.Errorf("model %q has no report mode", inst.Model)
	}

	buildStage := tracker.Stage("construct")
	res, err := inst.Build(ctx, core.LabeledSimplex(inst.M), 1)
	if err != nil {
		return err
	}
	c := res.Complex
	buildStage.Meta("facets", int64(c.FacetCount())).Meta("simplexes", int64(c.Size())).End()

	eng, cacheLine := cfg.engine(w)
	fmt.Fprintf(w, "%s\n", complexName)
	fmt.Fprintf(w, "f-vector:      %v\n", c.FVector())
	fmt.Fprintf(w, "facets:        %d\n", c.FacetCount())
	reduceStage := tracker.Stage("reduce")
	conn, err := eng.ConnectivityCtx(ctx, c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "connectivity:  %d\n", conn)
	fmt.Fprintf(w, "paper target:  %d-connected per %s\n", target, condition)
	match, err := eng.IsKConnectedCtx(ctx, c, target)
	if err != nil {
		return err
	}
	reduceStage.End()
	if match {
		fmt.Fprintf(w, "verdict:       matches the paper\n")
	} else {
		fmt.Fprintf(w, "verdict:       BELOW the paper's prediction (check the side condition)\n")
	}
	cacheLine()
	return nil
}

// engine returns the run's homology engine, memoized when cfg.cache is
// set, and a func that prints the engine's cache line, which a run
// without the cache omits.
func (cfg config) engine(w io.Writer) (*homology.Engine, func()) {
	if !cfg.cache {
		return homology.NewEngine(1, nil), func() {}
	}
	eng := homology.NewEngine(1, homology.NewCache())
	return eng, func() {
		hits, misses, _ := eng.CacheStats()
		fmt.Fprintf(w, "engine:        cache hits=%d misses=%d\n", hits, misses)
	}
}

func tableHeader(cfg config) string {
	if cfg.model == "iis" {
		return fmt.Sprintf("IIS^%d(S^m'), iterated immediate snapshot", cfg.r)
	}
	return fmt.Sprintf("C^%d(S^m'), custom model (per-round budget k=%d, no cumulative cap)", cfg.r, cfg.k)
}

// presetPrediction returns the table's paper-target column for presets
// that have one: the custom model coincides with S^r at f = rk, so the
// Lemma 17 prediction k-1 applies once m' >= rk+k.
func presetPrediction(cfg config) func(m, conn int) (string, string) {
	if cfg.model != "custom" {
		return nil
	}
	return func(m, conn int) (string, string) {
		if m < cfg.r*cfg.k+cfg.k {
			return "-", "below rk+k: no prediction"
		}
		if conn >= cfg.k-1 {
			return strconv.Itoa(cfg.k - 1), "matches the paper"
		}
		return strconv.Itoa(cfg.k - 1), "BELOW the paper's prediction"
	}
}

// runTable prints the connectivity table — one row per participating
// face dimension m' <= top, each built from a registry instance compiled
// at that dimension. predict, when non-nil, supplies the paper-target
// column; spec runs have no general prediction and tabulate "-".
func runTable(ctx context.Context, w io.Writer, cfg config, header string, top int,
	instAt func(m int) (*modelspec.Instance, error), predict func(m, conn int) (string, string)) error {
	tracker := obs.FromContext(ctx)
	eng, cacheLine := cfg.engine(w)
	fmt.Fprintf(w, "%s\n", header)
	fmt.Fprintf(w, "%4s  %8s  %12s  %6s  %s\n", "m'", "facets", "connectivity", "target", "verdict")
	stage := tracker.Stage("construct")
	for m := 0; m <= top; m++ {
		inst, err := instAt(m)
		if err != nil {
			return err
		}
		res, err := inst.Build(ctx, core.LabeledSimplex(m), 1)
		if err != nil {
			return err
		}
		conn, err := eng.ConnectivityCtx(ctx, res.Complex)
		if err != nil {
			return err
		}
		target, verdict := "-", "no prediction"
		if predict != nil {
			target, verdict = predict(m, conn)
		}
		fmt.Fprintf(w, "%4d  %8d  %12d  %6s  %s\n", m, res.Complex.FacetCount(), conn, target, verdict)
	}
	stage.End()
	cacheLine()
	return nil
}
