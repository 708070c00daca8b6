// Command bench is the repository benchmark. It builds nothing itself
// (bench/run.sh builds cmd/serve and this program from source) and drives
// one workload per invocation against real server subprocesses from one
// client process, checks every answer, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.21, "unit": "ms"}, ...}}
//
// with the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
// per-layer metrics. Usage, from the repository root:
//
//	bash bench/run.sh --workload cold-sweep --seed 7 --trace 0
//	bash bench/run.sh -baseline 10 -out a.json,b.json  # two sets: every workload, seeds 1..10
//	bash bench/run.sh -compare a.json b.json           # two sets, against the bounds
//
// See bench/README.md for the workloads, the metrics and the ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (0: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1: a traced run reporting the per-layer metrics")
	quick := fs.Bool("quick", false, "smaller inputs for a fast end-to-end check (tests)")
	serveBin := fs.String("serve", "", "the serve binary under test")
	work := fs.String("work", ".bench_build", "scratch directory for stores, logs and traces")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition: metric names, units, bounds")
	baseline := fs.Int("baseline", 0, "run every workload this many times per set (seeds 1..N), one set per -out file")
	out := fs.String("out", "", "baseline mode: comma-separated output files, one per set")
	compare := fs.Bool("compare", false, "compare two baseline sets given as arguments")
	child := fs.Bool("engine-child", false, "internal: the engine mode's build process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		return engineChild()
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two set files")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *serveBin == "" {
		fmt.Fprintln(os.Stderr, "bench: -serve is required (run through bench/run.sh)")
		return 2
	}
	if *baseline > 0 {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "bench: -baseline needs -out")
			return 2
		}
		return collectSets(spec, *baseline, *seconds, strings.Split(*out, ","), *serveBin, *work)
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
		serve: *serveBin, work: *work, conns: conns,
	}
	return execute(spec, cfg)
}

// execute runs one workload and prints its report.
func execute(spec *benchSpec, cfg config) int {
	dir, err := filepath.Abs(filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r := &run{cfg: cfg, dir: dir, ps: &procs{}, client: newClient(cfg.conns)}
	if cfg.trace {
		r.tr = newTracer()
	}

	// An interrupt must not leave servers behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-sig:
			r.ps.killAll()
			os.RemoveAll(dir)
			os.Exit(130)
		case <-stopWatch:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(stopWatch)
		<-watchDone
	}()

	runErr := workloads[cfg.workload](r)
	leftover := r.ps.count()
	r.ps.killAll()
	r.client.CloseIdleConnections()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v (run directory kept: %s)\n", cfg.workload, runErr, dir)
		return 1
	}
	if leftover > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d server processes were still running after the workload\n", leftover)
		return 1
	}
	if r.tr != nil {
		path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = r.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write trace:", err)
			return 1
		}
		fmt.Printf("spans: %s\n", path)
	}
	os.RemoveAll(dir)
	return r.report(spec)
}

// report prints the human-readable lines, then the result object.
func (r *run) report(spec *benchSpec) int {
	correct := r.tally.failed == 0
	e2e, err := r.endToEnd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.cfg.workload, err)
		for _, n := range r.checkNotes {
			fmt.Fprintln(os.Stderr, "  ", n)
		}
		return 1
	}

	fmt.Printf("workload %s seed %d: %d attempted, %d failed %v, %d latency samples\n",
		r.cfg.workload, r.cfg.seed, r.tally.attempted, r.tally.failed, r.tally.reasons, len(r.lat))
	if _, ok := percentile(r.lat, 0.90); !ok {
		fmt.Printf("p90_ms is the median: %d samples cannot support a 90th percentile\n", len(r.lat))
	}
	for _, m := range spec.EndToEnd {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	fmt.Printf("  %-28s %14.4f\n", "fail_frac", float64(r.tally.failed)/float64(max(1, r.tally.attempted)))
	for _, mode := range buildModes {
		if ms := r.modeMs[mode]; len(ms) > 0 {
			fmt.Printf("  %-28s %14.4f s (median of %d)\n", mode+"_s", median(ms)/1000, len(ms))
		}
	}
	for _, n := range r.checkNotes {
		fmt.Println("  failure:", n)
	}

	metrics := map[string]metricValue{}
	list, values := spec.EndToEnd, e2e
	if r.cfg.trace {
		list, values = spec.PerLayer, r.layers
		if values == nil {
			fmt.Fprintln(os.Stderr, "bench: traced run produced no layer metrics")
			return 1
		}
		fmt.Println("per-layer:")
		for _, m := range list {
			fmt.Printf("  %-28s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
		}
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", m.Name)
			return 1
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.tally.attempted, r.tally.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names, units, directions and bounds are defined there and only there.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + " defines no metrics")
	}
	return &s, nil
}

// layerNames lists the per-layer metrics the program computes; a traced
// run reports exactly the ones BENCHMARK.json lists, which must be these.
func layerNames() []string {
	names := []string{
		"modelspec.parse_us", "modelspec.price_us",
		"roundop.enumerate_s", "roundop.shards", "roundop.facets_per_s",
		"pc.merge_s", "topology.hash_s", "topology.stats_s",
		"jobs.flush_s", "jobs.flushes", "jobs.flush_mb",
		"homology.betti_s", "homology.morse_removed", "homology.morse_critical",
		"task.search_ms",
		"store.get_us", "store.put_us", "store.hit_rate",
		"serve.server_ms", "serve.transport_ms", "serve.computes", "serve.flight_waits", "serve.rejected", "serve.queue_depth",
		"cluster.hop_ms", "cluster.routed_requests", "cluster.fills", "cluster.delegated",
		"distbuild.leases", "distbuild.remote_deltas", "distbuild.remote_shard_frac",
		"build.engine_s", "build.get_s", "build.job_s", "build.dist_s",
		"ledger.engine_unattributed_frac", "ledger.get_unattributed_frac", "ledger.job_unattributed_frac",
		"ledger.request_unattributed_frac", "trace.overhead_frac",
	}
	sort.Strings(names)
	return names
}
