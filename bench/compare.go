package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runSet is a baseline set: every workload run once per seed, as
// -baseline writes it and -compare reads it.
type runSet struct {
	Machine machine                     `json:"machine"`
	Seconds float64                     `json:"seconds"`
	Runs    map[string][]setRun         `json:"runs"`    // workload → one entry per seed
	Summary map[string]map[string]stats `json:"summary"` // workload → metric → spread
}

type machine struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

type setRun struct {
	Seed    int64              `json:"seed"`
	Correct bool               `json:"correct"`
	Metrics map[string]float64 `json:"metrics"`
}

type stats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// collectSets runs every workload n times per set, seeds 1..n, and
// writes one set per output path with its per-metric medians and
// quartiles. One workload's runs go back to back, and with several sets
// each seed runs once per set before the next seed starts: drift on the
// machine then lands on every set alike, as it does on the two sides of
// an alternating comparison. Each run is this program re-executed exactly
// as a single-workload invocation.
func collectSets(spec *benchSpec, n int, seconds float64, outs []string, serveBin, work string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sets := make([]runSet, len(outs))
	for i := range sets {
		sets[i] = runSet{
			Machine: machine{runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH},
			Seconds: seconds,
			Runs:    map[string][]setRun{},
		}
	}
	for _, w := range workloadNames() {
		for seed := int64(1); seed <= int64(n); seed++ {
			for i := range sets {
				start := time.Now()
				var stdout bytes.Buffer
				cmd := exec.Command(self, "-serve", serveBin, "-work", work,
					"--workload", w, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
				cmd.Stdout = &stdout
				cmd.Stderr = os.Stderr
				runErr := cmd.Run()
				res, err := lastResult(stdout.Bytes())
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v (%v)\n", w, seed, err, runErr)
					return 1
				}
				sets[i].Runs[w] = append(sets[i].Runs[w], setRun{Seed: seed, Correct: res.Correct && runErr == nil, Metrics: res.values()})
				fmt.Fprintf(os.Stderr, "bench: %s seed %d set %d done in %.1fs\n", w, seed, i+1, time.Since(start).Seconds())
			}
		}
	}
	for i, set := range sets {
		set.Summary = summarize(spec, set.Runs)
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(outs[i], append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(outs[i])
		printSummary(spec, set.Summary)
	}
	return 0
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r result) values() map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		out[k] = v.Value
	}
	return out
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line (last line %q)", last)
	}
	return res, nil
}

func summarize(spec *benchSpec, runs map[string][]setRun) map[string]map[string]stats {
	out := map[string]map[string]stats{}
	for w, rs := range runs {
		out[w] = map[string]stats{}
		for _, m := range spec.EndToEnd {
			xs := column(rs, m.Name)
			q1, q3 := quartiles(xs)
			out[w][m.Name] = stats{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
		}
	}
	return out
}

func column(rs []setRun, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// spread is the interquartile range as a share of the median.
func (s stats) spread() float64 {
	return (s.Q3 - s.Q1) / s.Median
}

func printSummary(spec *benchSpec, sum map[string]map[string]stats) {
	fmt.Printf("%-14s %-12s %4s %14s %14s %14s %8s %7s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloadNames() {
		for _, m := range spec.EndToEnd {
			s, ok := sum[w][m.Name]
			if !ok {
				continue
			}
			fmt.Printf("%-14s %-12s %4d %14.4f %14.4f %14.4f %8.4f %7.3f\n", w, m.Name, s.N, s.Median, s.Q1, s.Q3, s.spread(), m.Bound)
		}
	}
}

// compareSets prints one row per workload × end-to-end metric comparing
// set b (the change) with set a (the parent) and exits 1 if any pair
// regressed. A pair regresses when b's median is worse than a's by more
// than the metric's bound. A pair is a gain only under the pair rule:
// b wins at least nine tenths of the seed-matched pairs (ties count for
// neither) and the medians differ by more than a's interquartile range.
// Where a's own spread exceeds the bound the row says unresolved, unless
// every run of b beats every run of a.
func compareSets(spec *benchSpec, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-14s %-12s %14s %14s %9s %8s %7s %6s  %s\n", "workload", "metric", "median a", "median b", "change", "spread a", "bound", "wins", "verdict")
	regressions := 0
	for _, w := range workloadNames() {
		for _, m := range spec.EndToEnd {
			ra, rb := a.Runs[w], b.Runs[w]
			xa, xb := column(ra, m.Name), column(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := compareMetric(m, ra, rb)
			if row.verdict == "regression" {
				regressions++
			}
			fmt.Printf("%-14s %-12s %14.4f %14.4f %+8.2f%% %8.4f %7.3f %6s  %s\n",
				w, m.Name, row.medA, row.medB, 100*row.change, row.spreadA, m.Bound, row.wins, row.verdict)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regressions\n", regressions)
		return 1
	}
	return 0
}

type comparison struct {
	medA, medB, change, spreadA float64
	wins, verdict               string
}

// compareMetric applies the bound and the pair rule to one workload ×
// metric; change is positive when b is better.
func compareMetric(m metricSpec, ra, rb []setRun) comparison {
	xa, xb := column(ra, m.Name), column(rb, m.Name)
	sign := 1.0 // +1: lower is better
	if m.Better == "higher" {
		sign = -1
	}
	c := comparison{medA: median(xa), medB: median(xb)}
	c.change = sign * (c.medA - c.medB) / c.medA
	q1, q3 := quartiles(xa)
	c.spreadA = (q3 - q1) / c.medA

	byseed := map[int64]float64{}
	for _, r := range ra {
		if v, ok := r.Metrics[m.Name]; ok {
			byseed[r.Seed] = v
		}
	}
	won, pairs := 0, 0
	for _, r := range rb {
		va, ok := byseed[r.Seed]
		vb, okb := r.Metrics[m.Name]
		if !ok || !okb {
			continue
		}
		pairs++
		if sign*(va-vb) > 0 {
			won++
		}
	}
	c.wins = fmt.Sprintf("%d/%d", won, pairs)
	allBetter := sign*(maxOf(xb, sign)-minOf(xa, sign)) < 0
	switch {
	case c.change < -m.Bound:
		c.verdict = "regression"
	case pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(c.medA-c.medB) > q3-q1:
		c.verdict = "gain"
	case c.spreadA > m.Bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "same"
	}
	return c
}

// maxOf returns the worst value of xs and minOf the best, for the
// direction sign (+1: lower is better).
func maxOf(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs {
		if sign*x > sign*w {
			w = x
		}
	}
	return w
}

func minOf(xs []float64, sign float64) float64 {
	b := xs[0]
	for _, x := range xs {
		if sign*x < sign*b {
			b = x
		}
	}
	return b
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}
