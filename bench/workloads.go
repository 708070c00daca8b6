package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// bigQuery is the one large build big-build times four ways:
// A^1 over S^4 with at most two crashes (the async model, n=4, f=2), a
// union of pseudospheres with 161,051 facets.
var bigQuery = query{Endpoint: "connectivity", Params: map[string]string{"model": "async", "n": "4", "f": "2", "r": "1"}}

// bigAnswer is what every build mode must return for bigQuery. The top
// Betti number is the pseudosphere closed form prod(|V_i|-1) = 10^5.
var bigAnswer = answer{
	Hash:   "a632d9743fd7b42e57c0ab972a10022671401c376e8e95af98afc07fa8161716",
	Facets: 161051,
	Betti:  []int{1, 0, 0, 0, 100000},
}

// Workload parameters.
const (
	hitZipfS      = 1.1  // Zipf exponent over the hit keys
	hitKeyCount   = 4096 // distinct keys the hit workloads fill and read
	fillChunks    = 8    // chunks the fill is timed in
	sweepClients  = 1    // cold-sweep's closed-loop clients
	sweepChecks   = 64   // cold-sweep responses recomputed in-process
	replaySample  = 256  // queries per serving workload replayed in the traced run
	ledgerRepeats = 3    // build ledger replays per traced big-build run
	setupSpawns   = 5    // spawns whose median is a workload's spawn time (big-build adds its repetitions')
	distThresh    = "100000"
	opTimeout     = 2 * time.Minute
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	serve    string // serve binary
	work     string // scratch root; everything the run writes goes below it
	conns    int    // client connections per target (= GOMAXPROCS = nproc)
}

// run is one workload execution: what it measured and the state it
// needs to clean up.
type run struct {
	cfg    config
	dir    string
	ps     *procs
	client *http.Client
	tr     *tracer

	tally      tally
	setups     []float64            // seconds per spawn
	fill       float64              // seconds spent filling keys, added to the setup median
	lat        []float64            // ms per successful operation
	wall       float64              // seconds the measured operations took
	rss        float64              // MB, largest VmHWM of any workload process
	hits       int                  // successful responses served from the store
	modeMs     map[string][]float64 // big-build: ms per build, by mode
	traced     []float64            // ms per successful operation in the traced half
	checkNotes []string

	layers   map[string]float64 // per-layer metrics (trace mode)
	counters map[string]float64 // /metrics deltas over the traced phase

	mu    sync.Mutex // guards peakQ against the queue sampler
	peakQ float64
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"big-build":   (*run).bigBuild,
	"cold-sweep":  (*run).coldSweep,
	"warm-hits":   func(r *run) error { return r.hitWorkload(false) },
	"routed-hits": func(r *run) error { return r.hitWorkload(true) },
}

func workloadNames() []string {
	return []string{"big-build", "cold-sweep", "warm-hits", "routed-hits"}
}

// fresh creates an empty scratch subdirectory of the run.
func (r *run) fresh(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// note records a correctness failure for the report.
func (r *run) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checkNotes) < 20 {
		r.checkNotes = append(r.checkNotes, msg)
	}
}

// Build modes, in the order a big-build repetition runs them.
const (
	modeEngine = "engine"
	modeGet    = "get"
	modeJob    = "job"
	modeDist   = "dist"
)

var buildModes = []string{modeEngine, modeGet, modeJob, modeDist}

// bigBuild times bigQuery four ways per repetition: in-process, as a
// cold GET, as a job, and as a distributed job. Each build starts fresh
// processes on fresh directories: a job on a store that already holds the
// answer finishes in a fraction of a second. Repetitions run while the
// next one, taking as long as the last, still fits in the run's seconds
// (at least one); a traced run adds one traced repetition and the ledger.
func (r *run) bigBuild() error {
	// A spawn takes milliseconds, so it is timed setupSpawns more times
	// than the repetitions alone would time it.
	r.modeMs = map[string][]float64{}
	for i := 0; i < setupSpawns; i++ {
		var round float64
		for _, mode := range buildModes {
			dir, err := r.fresh(fmt.Sprintf("spawn%d-%s", i+1, mode))
			if err != nil {
				return err
			}
			secs, err := r.spawnOnly(mode, dir)
			if err != nil {
				return err
			}
			round += secs
			os.RemoveAll(dir)
		}
		r.setups = append(r.setups, round)
	}
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for rep := 0; ; rep++ {
		start := time.Now()
		if err := r.buildRep(rep, false); err != nil {
			return err
		}
		if time.Now().Add(time.Since(start)).After(deadline) {
			break
		}
	}
	if !r.cfg.trace {
		return nil
	}
	if err := r.buildRep(-1, true); err != nil {
		return err
	}
	return r.buildLedger()
}

// spawnOnly starts one mode's processes on dir, stops them, and returns
// the time until they were ready.
func (r *run) spawnOnly(mode, dir string) (float64, error) {
	if mode == modeEngine {
		child, secs, err := r.startEngine(dir)
		if err != nil {
			return 0, err
		}
		child.stop()
		return secs, nil
	}
	_, secs, err := r.spawnBuild(mode, dir)
	if err != nil {
		return 0, err
	}
	return secs, r.ps.stopAll()
}

// buildRep runs every build mode once. A repetition's time is the sum of
// its four build times, recorded only when all four passed their checks;
// its spawn time is the sum of the four spawns.
func (r *run) buildRep(rep int, traced bool) error {
	var total, spawn float64
	ok := true
	for _, mode := range buildModes {
		ms, secs, err := r.buildOnce(mode, rep, traced)
		if err != nil {
			return err
		}
		spawn += secs
		if ms == 0 {
			ok = false
			continue
		}
		total += ms
		if !traced {
			r.modeMs[mode] = append(r.modeMs[mode], ms)
		}
	}
	switch {
	case !ok:
	case traced:
		r.traced = append(r.traced, total)
	default:
		r.setups = append(r.setups, spawn)
		r.lat = append(r.lat, total)
		r.wall += total / 1000
	}
	return nil
}

// buildOnce runs one build and returns its time in ms (0 if the build
// failed its checks, which the tally records) and its spawn time in s.
func (r *run) buildOnce(mode string, rep int, traced bool) (float64, float64, error) {
	dir, err := r.fresh(fmt.Sprintf("rep%d-%s", rep+1, mode))
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	if mode == modeEngine {
		return r.engineOnce(dir)
	}
	nodes, spawn, err := r.spawnBuild(mode, dir)
	if err != nil {
		return 0, 0, err
	}
	ms, err := r.serverBuild(mode, nodes, traced)
	return ms, spawn, err
}

// serverBuild sends bigQuery to a build mode's started servers, checks
// the answer, and stops the servers.
func (r *run) serverBuild(mode string, nodes []*proc, traced bool) (float64, error) {
	var before []metricsDoc
	var err error
	if traced {
		if before, err = r.scrapeAll(nodes); err != nil {
			return 0, err
		}
	}
	var sp *span
	if traced {
		sp = r.tr.begin(nil, "http.build-"+mode)
	}
	var elapsed time.Duration
	var resp response
	switch mode {
	case modeGet:
		t0 := time.Now()
		resp = sendQuery(r.client, bigQuery, nodes[0].url, opTimeout)
		elapsed = time.Since(t0)
	default:
		elapsed, resp = runJob(r.client, bigQuery, nodes[0].url)
	}
	if sp != nil {
		sp.end()
	}
	if traced {
		after, err := r.scrapeAll(nodes)
		if err != nil {
			return 0, err
		}
		r.addCounters(nodes, before, after)
	}
	rss, err := maxRSS(nodes...)
	if err != nil {
		return 0, err
	}
	r.rss = max(r.rss, rss)
	if err := r.ps.stopAll(); err != nil {
		return 0, err
	}
	if !r.tally.record(resp.status, resp.err) {
		r.note("build-%s: status %d err %v body %.200s", mode, resp.status, resp.err, resp.body)
		return 0, nil
	}
	got, err := answerOf(resp.body)
	if err != nil {
		r.tally.checkFailed("decode")
		r.note("build-%s: %v", mode, err)
		return 0, nil
	}
	if m := bigAnswer.mismatch(got); m != "" {
		r.tally.checkFailed("answer")
		r.note("build-%s: %s", mode, m)
		return 0, nil
	}
	return float64(elapsed) / float64(time.Millisecond), nil
}

// spawnBuild starts a build mode's servers on fresh directories under
// dir, at one worker each, and returns the seconds until all were healthy.
func (r *run) spawnBuild(mode, dir string) ([]*proc, float64, error) {
	start := time.Now()
	var nodes []*proc
	if mode == modeDist {
		var err error
		if nodes, err = r.startReplicas(dir, 2, true, "-workers", "1", "-dist-threshold", distThresh); err != nil {
			return nil, 0, err
		}
	} else {
		p, err := r.startStandalone(dir, "-jobs", filepath.Join(dir, "jobs"), "-workers", "1")
		if err != nil {
			return nil, 0, err
		}
		nodes = []*proc{p}
	}
	return nodes, time.Since(start).Seconds(), nil
}

// engineReport is the engine child's one line of output.
type engineReport struct {
	Answer  answer  `json:"answer"`
	Seconds float64 `json:"seconds"`
	RSSMB   float64 `json:"rss_mb"`
}

// engineChild is the self-re-exec side of the engine mode: announce
// readiness, wait for the go line, build, report. The build runs in its
// own process so its heap and RSS are its own, as a server's would be.
func engineChild() int {
	fmt.Println("ready")
	if _, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil {
		fmt.Fprintln(os.Stderr, "bench: engine child:", err)
		return 1
	}
	a, elapsed, err := engineBuild(bigQuery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: engine child:", err)
		return 1
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: engine child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(engineReport{Answer: a, Seconds: elapsed.Seconds(), RSSMB: rss}); err != nil {
		return 1
	}
	return 0
}

// engineProc is a started engine child that has reported ready.
type engineProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	log   *os.File
	ps    *procs
}

// startEngine re-executes this program as the engine child and returns
// the seconds until it reported ready.
func (r *run) startEngine(dir string) (*engineProc, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "engine.log"))
	if err != nil {
		return nil, 0, err
	}
	e := &engineProc{cmd: exec.Command(self, "-engine-child"), log: logf, ps: r.ps}
	e.cmd.Stderr = logf
	if e.stdin, err = e.cmd.StdinPipe(); err == nil {
		var stdout io.Reader
		if stdout, err = e.cmd.StdoutPipe(); err == nil {
			e.out = bufio.NewScanner(stdout)
			e.out.Buffer(make([]byte, 64<<10), 1<<20)
		}
	}
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := e.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	r.ps.adopt(e.cmd)
	if !e.out.Scan() || e.out.Text() != "ready" {
		e.stop()
		return nil, 0, fmt.Errorf("engine child did not report ready (%v)", e.out.Err())
	}
	return e, time.Since(start).Seconds(), nil
}

// stop kills the child if it is still running and reaps it.
func (e *engineProc) stop() {
	e.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	e.wait()             //nolint:errcheck // killed
}

// wait reaps the child and stops tracking it.
func (e *engineProc) wait() error {
	err := e.cmd.Wait()
	e.ps.release(e.cmd)
	e.log.Close()
	return err
}

// engineOnce runs one engine build in a fresh child and returns its time
// in ms (0 if it failed) and the child's spawn time in s.
func (r *run) engineOnce(dir string) (float64, float64, error) {
	e, spawn, err := r.startEngine(dir)
	if err != nil {
		return 0, 0, err
	}
	if _, err := io.WriteString(e.stdin, "go\n"); err != nil {
		e.stop()
		return 0, 0, err
	}
	e.stdin.Close()
	var rep engineReport
	var decodeErr error
	if e.out.Scan() {
		decodeErr = json.Unmarshal(e.out.Bytes(), &rep)
	} else {
		decodeErr = fmt.Errorf("engine child printed no report (%v)", e.out.Err())
	}
	waitErr := e.wait()
	r.tally.attempted++
	if decodeErr != nil || waitErr != nil {
		r.tally.fail("engine")
		r.note("engine child: %v %v", decodeErr, waitErr)
		return 0, spawn, nil
	}
	r.rss = max(r.rss, rep.RSSMB)
	if m := bigAnswer.mismatch(rep.Answer); m != "" {
		r.tally.checkFailed("answer")
		r.note("build-engine: %s", m)
		return 0, spawn, nil
	}
	return rep.Seconds * 1000, spawn, nil
}

// startStandalone starts one standalone server on a fresh port with a
// store under dir, plus extra flags.
func (r *run) startStandalone(dir string, extra ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return r.ps.start(r.cfg.serve, dir, "standalone", port, append([]string{"-store", filepath.Join(dir, "store")}, extra...)...)
}

// startReplicas starts n fleet replicas on fresh ports, each with a
// store (and a job directory when jobs is set) under dir, plus extra
// flags.
func (r *run) startReplicas(dir string, n int, jobs bool, extra ...string) ([]*proc, error) {
	ports := make([]int, n)
	urls := make([]string, n)
	for i := range ports {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i], urls[i] = port, fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	nodes := make([]*proc, n)
	for i := range nodes {
		name := fmt.Sprintf("replica%d", i+1)
		args := []string{"-mode", "replica", "-self", urls[i], "-peers", strings.Join(urls, ","),
			"-store", filepath.Join(dir, name, "store")}
		if jobs {
			args = append(args, "-jobs", filepath.Join(dir, name, "jobs"))
		}
		args = append(args, extra...)
		p, err := r.ps.start(r.cfg.serve, dir, name, ports[i], args...)
		if err != nil {
			return nil, err
		}
		nodes[i] = p
	}
	return nodes, nil
}

// scrapeAll reads /metrics from every node.
func (r *run) scrapeAll(nodes []*proc) ([]metricsDoc, error) {
	out := make([]metricsDoc, len(nodes))
	for i, p := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		doc, err := scrape(ctx, r.client, p)
		cancel()
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}

// addCounters accumulates the /metrics counter deltas the per-layer
// metrics read. Counters that a role reports differently are kept apart
// by node name: remote shard work is what non-coordinators did.
func (r *run) addCounters(nodes []*proc, before, after []metricsDoc) {
	if r.counters == nil {
		r.counters = map[string]float64{}
	}
	for i := range nodes {
		for name, v := range after[i].Counters {
			d := float64(v) - float64(before[i].Counters[name])
			r.counters[name] += d
			if name == "dist_worker_shards" && i > 0 {
				r.counters["dist_worker_shards.remote"] += d
			}
		}
		r.observeQueue(float64(after[i].Queued))
	}
}

// buildLedger replays bigQuery in-process: the GET path's layers (the
// engine mode's calls are a subset of them) and the job path's
// checkpointed build, each set against its mode's measured median.
func (r *run) buildLedger() error {
	dir, err := r.fresh("ledger")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	// The build ledger runs ledgerRepeats times, each on a fresh replayer
	// (a warm Betti cache would skip the reduction), and the replay with
	// the median total speaks for all: one replay is one noisy sample
	// against the repetitions' median.
	type replay struct {
		root *span
		took time.Duration
		rp   *replayer
	}
	var gets []replay
	for i := 0; i < ledgerRepeats; i++ {
		rp, err := newReplayer(r.tr, filepath.Join(dir, fmt.Sprintf("store%d", i)), 1)
		if err != nil {
			return err
		}
		get := r.tr.begin(nil, "ledger.get")
		a, err := rp.compute(ctx, get, bigQuery)
		took := get.end()
		if err != nil {
			return err
		}
		if m := bigAnswer.mismatch(a); m != "" {
			return fmt.Errorf("ledger replay: %s", m)
		}
		gets = append(gets, replay{get, took, rp})
	}
	sort.Slice(gets, func(i, j int) bool { return gets[i].took < gets[j].took })
	get, rp := gets[len(gets)/2].root, gets[len(gets)/2].rp
	morse := rp.counts.Counters()
	job := r.tr.begin(nil, "ledger.job")
	a, flushes, size, err := rp.jobReplay(ctx, job, bigQuery, dir)
	job.end()
	if err != nil {
		return err
	}
	if m := bigAnswer.mismatch(a); m != "" {
		return fmt.Errorf("job replay: %s", m)
	}
	spans := r.tr.snapshot()
	getL := byName(spans, map[uint64]bool{get.Trace: true})
	jobL := byName(spans, map[uint64]bool{job.Trace: true})
	L := r.layerDefaults()
	fillComputeLayers(L, getL, rp)
	L["homology.morse_removed"] = float64(morse["morse_removed"])
	L["homology.morse_critical"] = float64(morse["morse_critical"])
	L["jobs.flush_s"] = secs(jobL, "jobs.flush")
	L["jobs.flushes"] = float64(flushes)
	L["jobs.flush_mb"] = float64(size) / (1 << 20)

	var engine float64
	for _, name := range []string{"roundop.plan", "roundop.enumerate", "pc.merge", "topology.hash", "homology.betti"} {
		engine += secs(getL, name)
	}
	unattributed := func(replayed float64, mode string) float64 {
		return 1 - replayed/(median(r.modeMs[mode])/1000)
	}
	L["ledger.engine_unattributed_frac"] = unattributed(engine, modeEngine)
	L["ledger.get_unattributed_frac"] = unattributed(totalSecs(getL), modeGet)
	L["ledger.job_unattributed_frac"] = unattributed(totalSecs(jobL), modeJob)
	r.layers = L
	return nil
}

// secs returns a layer's total self time in seconds.
func secs(l map[string]*layerStats, name string) float64 {
	if ls := l[name]; ls != nil {
		return ls.total.Seconds()
	}
	return 0
}

// totalSecs is the summed self time of every span in l: the wall time of
// the traces it was built from.
func totalSecs(l map[string]*layerStats) float64 {
	var t float64
	for _, ls := range l {
		t += ls.total.Seconds()
	}
	return t
}

// medianMicros returns the median self time of one layer's calls in µs.
func medianMicros(l map[string]*layerStats, name string) float64 {
	if ls := l[name]; ls != nil && len(ls.each) > 0 {
		return median(ls.each) * 1e6
	}
	return 0
}

// fillComputeLayers sets the layer metrics a compute replay measures.
func fillComputeLayers(L map[string]float64, l map[string]*layerStats, rp *replayer) {
	L["modelspec.parse_us"] = medianMicros(l, "modelspec.parse")
	L["modelspec.price_us"] = medianMicros(l, "modelspec.price")
	L["roundop.enumerate_s"] = secs(l, "roundop.enumerate")
	L["roundop.shards"] = float64(rp.shards)
	if e := L["roundop.enumerate_s"]; e > 0 {
		L["roundop.facets_per_s"] = float64(rp.facets) / e
	}
	L["pc.merge_s"] = secs(l, "pc.merge")
	L["topology.hash_s"] = secs(l, "topology.hash")
	L["topology.stats_s"] = secs(l, "topology.stats")
	L["homology.betti_s"] = secs(l, "homology.betti")
	L["task.search_ms"] = secs(l, "task.search") * 1000
	L["store.get_us"] = medianMicros(l, "store.get")
	L["store.put_us"] = medianMicros(l, "store.put")
}

// coldSweep drives the seeded parameter sweep: a closed loop of one
// client over a fresh store, every query distinct, then recomputes a
// seeded sample of responses in-process. With two clients, a cheap
// query's latency depended on which heavy query the other client had
// running (the server computes on every core), and the median moved by
// half between runs.
func (r *run) coldSweep() error {
	gen := newSweep(r.cfg.seed)
	nodes, err := r.spawnMedian(func(dir string) ([]*proc, error) {
		p, err := r.startStandalone(dir)
		return []*proc{p}, err
	})
	if err != nil {
		return err
	}
	type done struct {
		q    query
		body []byte
	}
	var mu sync.Mutex
	var ok []done
	phase := func(seconds float64, traced bool) []float64 {
		lat, wall := closedLoop(seconds, sweepClients, func() (float64, bool) {
			mu.Lock()
			q := gen.next()
			mu.Unlock()
			ms, resp := r.timedQuery(q, nodes[0].url, traced)
			mu.Lock()
			defer mu.Unlock()
			if !r.tally.record(resp.status, resp.err) {
				r.note("cold-sweep %s: status %d err %v body %.200s", q, resp.status, resp.err, resp.body)
				return 0, false
			}
			ok = append(ok, done{q, resp.body})
			return ms, true
		})
		if !traced {
			r.wall += wall
		}
		return lat
	}
	if err := r.servePhases(nodes, phase); err != nil {
		return err
	}
	if err := r.ps.stopAll(); err != nil {
		return err
	}

	// Responses are checked against an independent in-process computation
	// after the timed window, so checking costs the servers nothing.
	dir, err := r.fresh("check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(newTracer(), filepath.Join(dir, "store"), r.cfg.conns)
	if err != nil {
		return err
	}
	checks := sweepChecks
	if r.cfg.quick {
		checks = 8
	}
	for _, i := range checkIndices(r.cfg.seed, len(ok), checks) {
		got, err := answerOf(ok[i].body)
		if err != nil {
			r.tally.checkFailed("decode")
			r.note("cold-sweep %s: %v", ok[i].q, err)
			continue
		}
		want, err := rp.compute(context.Background(), nil, ok[i].q)
		if err != nil {
			return fmt.Errorf("recompute %s: %w", ok[i].q, err)
		}
		if m := want.mismatch(got); m != "" {
			r.tally.checkFailed("answer")
			r.note("cold-sweep %s: %s", ok[i].q, m)
		}
	}
	if !r.cfg.trace {
		return nil
	}
	return r.sweepLedger()
}

// sweepLedger replays the first replaySample queries of the seeded sweep
// through the in-process layers.
func (r *run) sweepLedger() error {
	dir, err := r.fresh("ledger")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(r.tr, filepath.Join(dir, "store"), r.cfg.conns)
	if err != nil {
		return err
	}
	gen := newSweep(r.cfg.seed)
	roots := map[uint64]bool{}
	var total time.Duration
	n := r.sampleSize()
	for i := 0; i < n; i++ {
		root := r.tr.begin(nil, "ledger.query")
		_, err := rp.compute(context.Background(), root, gen.next())
		total += root.end()
		if err != nil {
			return err
		}
		roots[root.Trace] = true
	}
	l := byName(r.tr.snapshot(), roots)
	L := r.layerDefaults()
	fillComputeLayers(L, l, rp)
	c := rp.counts.Counters()
	L["homology.morse_removed"] = float64(c["morse_removed"])
	L["homology.morse_critical"] = float64(c["morse_critical"])
	r.servingLayers(L, total.Seconds()*1000/float64(n))
	r.layers = L
	return nil
}

func (r *run) sampleSize() int {
	if r.cfg.quick {
		return 32
	}
	return replaySample
}

// spawnMedian starts a workload's processes setupSpawns times on fresh
// directories, keeping the last set, and records each spawn's time to
// all-healthy: one spawn is too short to time repeatably.
func (r *run) spawnMedian(start func(dir string) ([]*proc, error)) ([]*proc, error) {
	for i := 0; ; i++ {
		dir, err := r.fresh(fmt.Sprintf("spawn%d", i+1))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		nodes, err := start(dir)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if i == setupSpawns-1 {
			return nodes, nil
		}
		if err := r.ps.stopAll(); err != nil {
			return nil, err
		}
	}
}

// servePhases runs a serving workload's measured phase: the whole run
// untraced, or in a traced run an untraced half then a traced half with
// /metrics deltas and queue-depth samples, so the traced run also reports
// its own overhead.
func (r *run) servePhases(nodes []*proc, phase func(seconds float64, traced bool) []float64) error {
	if !r.cfg.trace {
		r.lat = phase(r.cfg.seconds, false)
		return r.finishServing(nodes)
	}
	r.lat = phase(r.cfg.seconds/2, false)
	before, err := r.scrapeAll(nodes)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if docs, err := r.scrapeAll(nodes); err == nil {
				for _, d := range docs {
					r.observeQueue(float64(d.Queued))
				}
			}
		}
	}()
	r.traced = phase(r.cfg.seconds/2, true)
	close(stop)
	wg.Wait()
	after, err := r.scrapeAll(nodes)
	if err != nil {
		return err
	}
	r.addCounters(nodes, before, after)
	return r.finishServing(nodes)
}

func (r *run) observeQueue(q float64) {
	r.mu.Lock()
	r.peakQ = max(r.peakQ, q)
	r.mu.Unlock()
}

// finishServing records the serving processes' peak RSS.
func (r *run) finishServing(nodes []*proc) error {
	rss, err := maxRSS(nodes...)
	if err != nil {
		return err
	}
	r.rss = max(r.rss, rss)
	return nil
}

// hitWorkload fills hitKeyCount cheap keys, then reads Zipf-ranked keys
// in a closed loop of conns clients, either from a standalone server or
// through a router in front of two replicas. An open loop's throughput is
// its arrival rate, and at a rate the service sustains it left the machine
// mostly idle, so each sub-millisecond hit paid a wake-up whose cost
// varied with the host.
func (r *run) hitWorkload(routed bool) error {
	nkeys := hitKeyCount
	if r.cfg.quick {
		nkeys = 512
	}
	keys := hitKeys(r.cfg.seed, nkeys)
	nodes, err := r.spawnMedian(func(dir string) ([]*proc, error) {
		if !routed {
			p, err := r.startStandalone(dir)
			return []*proc{p}, err
		}
		reps, err := r.startReplicas(dir, 2, false)
		if err != nil {
			return nil, err
		}
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		router, err := r.ps.start(r.cfg.serve, dir, "router", port,
			"-mode", "router", "-replicas", reps[0].url+","+reps[1].url)
		if err != nil {
			return nil, err
		}
		return append([]*proc{router}, reps...), nil
	})
	if err != nil {
		return err
	}
	front := nodes[0].url

	// Fill: every key once, through the front door, recording the bytes
	// each later hit must reproduce. The keys go in fillChunks chunks with
	// the same template mix (rank i is template i mod 7), and the fill
	// counts as fillChunks times the median chunk's time: a slow moment on
	// the machine then moves the set-up time no more than it moves one
	// chunk, as a median over several set-ups would have it.
	want := make([][32]byte, len(keys))
	bodies := make([][]byte, len(keys))
	var fillTally tally
	var mu sync.Mutex
	var chunks []float64
	for c := 0; c < fillChunks; c++ {
		start := time.Now()
		next, end := c*len(keys)/fillChunks, (c+1)*len(keys)/fillChunks
		var wg sync.WaitGroup
		for w := 0; w < r.cfg.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= end {
						return
					}
					resp := sendQuery(r.client, keys[i], front, opTimeout)
					mu.Lock()
					if fillTally.record(resp.status, resp.err) {
						want[i] = sha256.Sum256(resp.body)
						bodies[i] = resp.body
					} else {
						r.note("fill %s: status %d err %v body %.200s", keys[i], resp.status, resp.err, resp.body)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		chunks = append(chunks, time.Since(start).Seconds())
	}
	r.fill = median(chunks) * fillChunks
	if fillTally.failed > 0 {
		r.tally.merge(fillTally)
		return r.ps.stopAll()
	}

	// read sends one Zipf-drawn key to the server picked for it and checks
	// the bytes against the fill.
	read := func(stream *keyStream, target func(key int) string, traced bool) (float64, bool) {
		i := stream.next()
		ms, resp := r.timedQuery(keys[i], target(i), traced)
		mu.Lock()
		defer mu.Unlock()
		if !r.tally.record(resp.status, resp.err) {
			r.note("hit %s: status %d err %v body %.200s", keys[i], resp.status, resp.err, resp.body)
			return 0, false
		}
		if sha256.Sum256(resp.body) != want[i] {
			r.tally.checkFailed("bytes")
			r.note("hit %s: bytes differ from the fill", keys[i])
			return 0, false
		}
		if resp.cache == "hit" {
			r.hits++
		}
		return ms, true
	}
	stream := newKeyStream(r.cfg.seed, hitZipfS, len(keys))
	phase := func(seconds float64, traced bool) []float64 {
		lat, wall := closedLoop(seconds, r.cfg.conns, func() (float64, bool) {
			return read(stream, func(int) string { return front }, traced)
		})
		if !traced {
			r.wall += wall
		}
		return lat
	}
	if err := r.servePhases(nodes, phase); err != nil {
		return err
	}
	if routed && r.cfg.trace {
		if err := r.hopPhase(nodes[1:], keys, want, read); err != nil {
			return err
		}
	}
	if err := r.ps.stopAll(); err != nil {
		return err
	}
	if !r.cfg.trace {
		return nil
	}
	return r.hitLedger(keys, bodies)
}

// timedQuery sends q to base and returns its latency in ms, inside a
// client span when traced.
func (r *run) timedQuery(q query, base string, traced bool) (float64, response) {
	if traced {
		defer r.tr.begin(nil, "http."+q.Endpoint).end()
	}
	start := time.Now()
	resp := sendQuery(r.client, q, base, opTimeout)
	return float64(time.Since(start)) / float64(time.Millisecond), resp
}

// hopPhase measures the router hop in a traced routed run: every key is
// first read from both replicas directly (filling each replica's local
// store through the read-through), then the same closed loop as the
// traced half runs straight at the replicas, alternating between them by
// key. The hop is the routed traced p50 minus this direct p50.
func (r *run) hopPhase(replicas []*proc, keys []query, want [][32]byte,
	read func(*keyStream, func(int) string, bool) (float64, bool)) error {
	for _, p := range replicas {
		for i, q := range keys {
			resp := sendQuery(r.client, q, p.url, opTimeout)
			if resp.err != nil || resp.status != http.StatusOK || sha256.Sum256(resp.body) != want[i] {
				return fmt.Errorf("priming %s on %s: status %d err %v", q, p.name, resp.status, resp.err)
			}
		}
	}
	// The direct reads are checked and counted as attempted, but they are
	// not the workload's, so they leave its hit count alone.
	failed, hits := r.tally.failed, r.hits
	defer func() { r.hits = hits }()
	stream := newKeyStream(r.cfg.seed, hitZipfS, len(keys))
	direct, _ := closedLoop(r.cfg.seconds/2, r.cfg.conns, func() (float64, bool) {
		return read(stream, func(key int) string { return replicas[key%len(replicas)].url }, false)
	})
	if r.tally.failed > failed {
		return fmt.Errorf("direct replica reads failed: %v", r.tally.reasons)
	}
	if len(direct) > 0 && len(r.traced) > 0 {
		if r.counters == nil {
			r.counters = map[string]float64{}
		}
		r.counters["hop_ms"] = median(r.traced) - median(direct)
	}
	return nil
}

// hitLedger replays the hit path for the first replaySample keys of the
// seed's key stream: model resolution and the store read.
func (r *run) hitLedger(keys []query, bodies [][]byte) error {
	dir, err := r.fresh("ledger")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(r.tr, filepath.Join(dir, "store"), r.cfg.conns)
	if err != nil {
		return err
	}
	stream := newKeyStream(r.cfg.seed, hitZipfS, len(keys))
	sample := make([]int, r.sampleSize())
	for i := range sample {
		sample[i] = stream.next()
		if err := rp.seed(keys[sample[i]], bodies[sample[i]]); err != nil {
			return err
		}
	}
	n := len(sample)
	roots := map[uint64]bool{}
	var total time.Duration
	for _, k := range sample {
		root := r.tr.begin(nil, "ledger.hit")
		err := rp.hit(root, keys[k], bodies[k])
		total += root.end()
		if err != nil {
			return err
		}
		roots[root.Trace] = true
	}
	l := byName(r.tr.snapshot(), roots)
	L := r.layerDefaults()
	L["modelspec.parse_us"] = medianMicros(l, "modelspec.parse")
	L["store.get_us"] = medianMicros(l, "store.get")
	r.servingLayers(L, total.Seconds()*1000/float64(n))
	r.layers = L
	return nil
}

// servingLayers fills the serving workloads' client-side layer metrics.
// replayMs is the mean in-process replay time of one request.
func (r *run) servingLayers(L map[string]float64, replayMs float64) {
	if n := len(r.lat) + len(r.traced); n > 0 {
		L["store.hit_rate"] = float64(r.hits) / float64(n)
	}
	if m := mean(r.traced); m > 0 {
		L["ledger.request_unattributed_frac"] = 1 - replayMs/m
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerDefaults returns every per-layer metric, zero for a layer the
// workload does not reach, with the entries every workload shares filled
// in: the servers' /metrics deltas over the traced phase and the
// client's own measurements.
func (r *run) layerDefaults() map[string]float64 {
	L := map[string]float64{}
	for _, name := range layerNames() {
		L[name] = 0
	}
	c := r.counters
	var latUs, latN float64
	for name, v := range c {
		if strings.HasPrefix(name, "latency_us.") {
			latUs += v
		}
		if strings.HasPrefix(name, "latency_count.") {
			latN += v
		}
	}
	if latN > 0 {
		L["serve.server_ms"] = latUs / latN / 1000
		if r.modeMs == nil { // a big-build operation is four builds, not one request
			L["serve.transport_ms"] = mean(r.traced) - L["serve.server_ms"]
		}
	}
	L["serve.computes"] = c["computes"]
	L["serve.flight_waits"] = c["resp_flight_waits"]
	L["serve.rejected"] = c["rejected_saturated"] + c["rejected_budget"]
	L["serve.queue_depth"] = r.peakQ
	L["cluster.hop_ms"] = c["hop_ms"]
	L["cluster.routed_requests"] = c["routed_requests"]
	L["cluster.fills"] = c["cluster_fills"]
	L["cluster.delegated"] = c["cluster_delegated"]
	L["distbuild.leases"] = c["dist_leases_granted"]
	L["distbuild.remote_deltas"] = c["dist_remote_deltas"]
	if done := c["dist_shards_done"]; done > 0 {
		L["distbuild.remote_shard_frac"] = c["dist_worker_shards.remote"] / done
	}
	if len(r.lat) > 0 && len(r.traced) > 0 {
		L["trace.overhead_frac"] = median(r.traced)/median(r.lat) - 1
	}
	for _, mode := range buildModes {
		if ms := r.modeMs[mode]; len(ms) > 0 {
			L["build."+mode+"_s"] = median(ms) / 1000
		}
	}
	return L
}

// endToEnd returns the run's end-to-end metrics.
func (r *run) endToEnd() (map[string]float64, error) {
	if len(r.lat) == 0 {
		return nil, errors.New("no successful operations to report")
	}
	p90, _ := percentile(r.lat, 0.90)
	out := map[string]float64{
		"setup_s":     median(r.setups) + r.fill,
		"p50_ms":      median(r.lat),
		"p90_ms":      p90,
		"qps":         float64(len(r.lat)) / r.wall,
		"peak_rss_mb": r.rss,
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("metric %s = %v", k, v)
		}
	}
	return out, nil
}
