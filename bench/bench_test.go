package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"pseudosphere/internal/core"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/task"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the engine mode re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-engine-child" {
		os.Exit(engineChild())
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 0.90, 90, true},   // 10 samples above the 90th
		{99, 0.90, 50, false},   // 9 above: the median instead
		{1000, 0.99, 990, true}, // 10 above the 99th
		{999, 0.99, 500, false}, // 9 above
		{1, 0.90, 1, false},     // a single build
		{4, 0.90, 2.5, false},   // median of an even count
		{200, 0.50, 100, true},  // the median itself
		{11, 0.01, 1, true},     // the lowest sample with 10 above
		{10, 0.01, 5.5, false},  // only 9 above the lowest of 10
		{0, 0.50, math.NaN(), false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.wantOK || !(got == tc.want || math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread bound is
// stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	for _, tc := range []struct {
		status int
		err    error
		ok     bool
	}{
		{http.StatusOK, nil, true},
		{http.StatusTooManyRequests, nil, false},
		{http.StatusRequestEntityTooLarge, nil, false},
		{http.StatusInternalServerError, nil, false},
		{http.StatusBadGateway, nil, false},
		{http.StatusGatewayTimeout, nil, false},
		{http.StatusBadRequest, nil, false},
		{0, errors.New("connection refused"), false},
		{http.StatusOK, nil, true},
	} {
		if got := tl.record(tc.status, tc.err); got != tc.ok {
			t.Errorf("record(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.ok)
		}
	}
	tl.checkFailed("bytes") // one of the two 200s carried wrong bytes
	if tl.attempted != 9 || tl.failed != 8 {
		t.Fatalf("attempted %d failed %d, want 9 and 8", tl.attempted, tl.failed)
	}
	for reason, n := range map[string]int{"status_429": 1, "status_413": 1, "status_500": 1, "status_502": 1,
		"status_504": 1, "status_400": 1, "transport": 1, "check_bytes": 1} {
		if tl.reasons[reason] != n {
			t.Errorf("reason %s counted %d, want %d (all: %v)", reason, tl.reasons[reason], n, tl.reasons)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Trace: 1, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Trace: 1, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Trace: 1, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Trace: 1, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Trace: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byRoot := byName(spans, map[uint64]bool{1: true})
	if _, ok := byRoot["other"]; ok {
		t.Error("byName included a span outside the selected traces")
	}
	if got := byRoot["a"].total; got != 25 {
		t.Errorf("layer a total %d, want 25", got)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "root")
	child := tr.begin(root, "child")
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Trace != spans[0].Trace {
		t.Fatalf("spans %+v do not form a tree", spans)
	}
}

func TestKeyStreamDeterminism(t *testing.T) {
	draw := func(seed int64) []int {
		s := newKeyStream(seed, 1.1, 4096)
		out := make([]int, 4000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two key streams")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave one key stream")
	}
	hot := 0
	for i, k := range a {
		if k < 0 || k >= 4096 {
			t.Fatalf("key %d = %d out of range", i, k)
		}
		if k == 0 {
			hot++
		}
	}
	// Zipf s=1.1 over 4,096 ranks gives rank 0 about a sixth of the draws.
	if hot < 400 || hot > 1200 {
		t.Errorf("rank 0 drawn %d times of 4000", hot)
	}
	if k1, k2 := hitKeys(3, 512), hitKeys(3, 512); !slices.EqualFunc(k1, k2, func(x, y query) bool { return x.ident() == y.ident() }) {
		t.Fatal("hit keys differ for one seed")
	}
	seen := map[string]bool{}
	for _, q := range hitKeys(3, 512) {
		seen[q.ident()] = true
	}
	if len(seen) != 512 {
		t.Fatalf("hit keys have %d distinct of 512", len(seen))
	}
}

func TestSweepDeterministicAndDistinct(t *testing.T) {
	draw := func(seed int64, n int) []string {
		s := newSweep(seed)
		out := make([]string, n)
		for i := range out {
			out[i] = s.next().ident()
		}
		return out
	}
	a, b, c := draw(11, 2000), draw(11, 2000), draw(12, 2000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two sweeps")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave one sweep")
	}
	distinct := map[string]bool{}
	for _, id := range a {
		distinct[id] = true
	}
	if frac := float64(len(distinct)) / float64(len(a)); frac < 0.9 {
		t.Errorf("only %.1f%% of 2000 sweep queries are distinct", 100*frac)
	}
}

// Default service budgets (serve.Config.fill).
const (
	defaultMaxFacets     = 8_000_000
	defaultMaxSearchBits = 4096
)

// TestSweepAdmissible checks that every query the generators emit is
// admitted under the service's default -max-facets and search budget and
// completes without error: a benchmark query the service refuses or fails
// would count as a failure of the system, not of the benchmark.
func TestSweepAdmissible(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 64
	}
	rp, err := newReplayer(newTracer(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var queries []query
	for seed := int64(1); seed <= 3; seed++ {
		s := newSweep(seed)
		for i := 0; i < n; i++ {
			queries = append(queries, s.next())
		}
		queries = append(queries, hitKeys(seed, n/4)...)
	}
	for _, q := range queries {
		if err := admissible(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := rp.compute(context.Background(), nil, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// admissible prices q the way the service's admission does.
func admissible(q query) error {
	if q.Endpoint == "pseudosphere" {
		n, _ := strconv.Atoi(q.Params["n"])
		facets := math.Pow(float64(len(splitValues(q.Params["values"]))), float64(n+1))
		if facets > defaultMaxFacets {
			return fmt.Errorf("%v facets", facets)
		}
		return nil
	}
	inst, err := q.instance()
	if err != nil {
		return err
	}
	if f := inst.InsertionFloor(); f > defaultMaxFacets {
		return fmt.Errorf("insertion floor %d", f)
	}
	if q.Endpoint != "decision" {
		est, err := inst.Estimate(inputSimplex(inst.M))
		if err == nil && est > defaultMaxFacets {
			err = fmt.Errorf("estimate %d", est)
		}
		return err
	}
	values := splitValues(q.Params["values"])
	res := pc.NewResult()
	for _, input := range core.InputFacets(inst.N, values) {
		sub, err := inst.Build(context.Background(), input, 1)
		if err != nil {
			return err
		}
		res.Merge(sub)
	}
	if bits := task.SearchSpaceLog2(task.AnnotateViews(res.Complex, res.Views)); bits > defaultMaxSearchBits {
		return fmt.Errorf("search space 2^%.0f", bits)
	}
	return nil
}

func TestLayerNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, layerNames()) {
		t.Fatalf("BENCHMARK.json per_layer %v\nprogram computes %v", names, layerNames())
	}
}

// TestQuickEndToEnd runs every workload for about a second against a
// freshly built server, and one traced run, through the same entry point
// the benchmark command uses.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and builds the large complex several times")
	}
	work := t.TempDir()
	serveBin := filepath.Join(work, "serve")
	build := exec.Command("go", "build", "-o", serveBin, "./cmd/serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build serve: %v\n%s", err, out)
	}
	base := []string{"-serve", serveBin, "-work", work, "-spec", "../BENCHMARK.json", "-quick", "--seconds", "1", "--seed", "5"}
	runs := [][]string{{"--trace", "1", "--workload", "warm-hits"}}
	for _, w := range workloadNames() {
		runs = append(runs, []string{"--trace", "0", "--workload", w})
	}
	for _, extra := range runs {
		if code := realMain(append(append([]string{}, base...), extra...)); code != 0 {
			t.Errorf("%v exited %d", extra, code)
		}
	}
	trace, err := os.ReadFile(filepath.Join(work, "traces", "warm-hits-seed5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(trace, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %v (%d spans)", err, len(spans))
	}
}
