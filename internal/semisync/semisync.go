// Package semisync implements Section 8 of the paper: the semi-synchronous
// protocol complex. The time between consecutive steps of a process lies
// in [c1, c2] and message delivery takes at most d; C = c2/c1. Executions
// are round-structured: a round lasts exactly time d, all messages sent in
// a round are delivered at its very end, and processes step in lockstep
// every c1, giving p = ceil(d/c1) microrounds per round.
//
// A failure pattern F maps each failing process to the microround in which
// it fails; a survivor's view at the end of the round is the vector
// (mu_0, ..., mu_n) where mu_j is the microround of the last message
// received from P_j (0 if none, p for nonfaulty senders, F(P_j)-1 or
// F(P_j) for failing ones). The complex of one-round executions failing
// exactly K with pattern F is the pseudosphere psi(S\K; [F]) (Lemma 19);
// intersections along the lexicographic ordering are unions of
// pseudospheres psi(S\K; [F^j]) (Lemma 20); the r-round complex is
// (m-(n-k)-1)-connected when n >= (r+1)k (Lemma 21); and stretching the
// final round gives the wait-free time lower bound floor(f/k)*d + C*d
// (Corollary 22).
package semisync

import (
	"fmt"
	"sort"
	"strconv"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Params fixes the timing and failure structure of the model.
type Params struct {
	C1       int // minimum time between consecutive steps of a process
	C2       int // maximum time between consecutive steps of a process
	D        int // maximum message delivery time
	PerRound int // k: maximum crashes per round
	Total    int // f: maximum crashes overall
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.C1 <= 0 || p.C2 < p.C1 {
		return fmt.Errorf("semisync: need 0 < c1 <= c2, got c1=%d c2=%d", p.C1, p.C2)
	}
	if p.D < p.C1 {
		return fmt.Errorf("semisync: need d >= c1, got d=%d c1=%d", p.D, p.C1)
	}
	if p.PerRound < 0 || p.Total < 0 {
		return fmt.Errorf("semisync: failure bounds must be nonnegative (k=%d, f=%d)", p.PerRound, p.Total)
	}
	return nil
}

// Micro returns p = ceil(d/c1), the number of microrounds per round.
func (p Params) Micro() int {
	return (p.D + p.C1 - 1) / p.C1
}

// Ratio returns C = c2/c1 as a rational pair (num, den) in lowest terms.
func (p Params) Ratio() (num, den int) {
	g := gcd(p.C2, p.C1)
	return p.C2 / g, p.C1 / g
}

// FailurePattern maps each failing process id to the microround (in 1..p)
// in which it fails.
type FailurePattern map[int]int

// Validate checks that the pattern fails exactly the processes in fail at
// microrounds within 1..p.
func (f FailurePattern) Validate(fail []int, micro int) error {
	if len(f) != len(fail) {
		return fmt.Errorf("semisync: pattern covers %d processes, failure set has %d", len(f), len(fail))
	}
	for _, q := range fail {
		m, ok := f[q]
		if !ok {
			return fmt.Errorf("semisync: failing process %d missing from pattern", q)
		}
		if m < 1 || m > micro {
			return fmt.Errorf("semisync: process %d fails at microround %d, outside 1..%d", q, m, micro)
		}
	}
	return nil
}

// Key canonically encodes the pattern for ordering and deduplication.
func (f FailurePattern) Key() string {
	ids := make([]int, 0, len(f))
	for q := range f {
		ids = append(ids, q)
	}
	sort.Ints(ids)
	out := ""
	for i, q := range ids {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d@%d", q, f[q])
	}
	return out
}

// Patterns enumerates all failure patterns for the failure set fail with
// microrounds 1..micro, in the paper's reverse lexicographic order: the
// first pattern fails every process at microround micro, the last at 1.
func Patterns(fail []int, micro int) []FailurePattern {
	sorted := append([]int(nil), fail...)
	sort.Ints(sorted)
	if len(sorted) == 0 {
		return []FailurePattern{{}}
	}
	var out []FailurePattern
	cur := make([]int, len(sorted))
	var rec func(i int)
	rec = func(i int) {
		if i == len(sorted) {
			f := make(FailurePattern, len(sorted))
			for j, q := range sorted {
				f[q] = cur[j]
			}
			out = append(out, f)
			return
		}
		for m := micro; m >= 1; m-- {
			cur[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// OneRoundPattern returns M^1_{K,F}(S): the complex of one-round
// executions from S in which exactly the processes in fail crash with
// pattern f. Every survivor independently sees each failing process P_j
// last at microround f[P_j]-1 or f[P_j]; nonfaulty senders are seen at
// microround p. force, if nonnegative, restricts to executions in which
// every survivor sees the failing process force at exactly f[force] (the
// views [F arrow j] of Lemma 20).
func OneRoundPattern(input topology.Simplex, fail []int, f FailurePattern, p Params, force int) (*pc.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(fail, p.Micro()); err != nil {
		return nil, err
	}
	opts, err := oneRoundPatternOptions(pc.InputViews(input), fail, f, p, force)
	if err != nil {
		return nil, err
	}
	return roundop.Product(opts), nil
}

// oneRoundPatternOptions precomputes each survivor's admissible next views
// for failure set fail under pattern f: for each failing process j the
// survivor last sees j at microround f[j]-1 or f[j] (exactly f[j] when
// j == force). A choice vector fixes the whole heard set, annotations
// included, so each choice's heard set is built and encoded once and
// shared by every survivor; the options are the (survivor, choice) views.
// Returns nil options when no process survives.
func oneRoundPatternOptions(cur []*views.View, fail []int, f FailurePattern, p Params, force int) ([][]pc.Option, error) {
	micro := p.Micro()
	failSet := make(map[int]bool, len(fail))
	byID := make(map[int]*views.View, len(cur))
	for _, v := range cur {
		byID[v.P] = v
	}
	for _, q := range fail {
		if _, ok := byID[q]; !ok {
			return nil, fmt.Errorf("semisync: failing process %d is not a participant", q)
		}
		failSet[q] = true
	}
	if force >= 0 && !failSet[force] {
		return nil, fmt.Errorf("semisync: forced process %d is not failing", force)
	}
	var survivors []*views.View
	for _, v := range cur {
		if !failSet[v.P] {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		return nil, nil
	}
	// Per-survivor choices: for each failing process j, mu_j in
	// {f[j]-1, f[j]} (or exactly f[j] when j == force).
	sortedFail := append([]int(nil), fail...)
	sort.Ints(sortedFail)
	perFail := make([][]int, len(sortedFail))
	failIdx := make(map[int]int, len(sortedFail))
	for i, q := range sortedFail {
		failIdx[q] = i
		if q == force {
			perFail[i] = []int{f[q]}
		} else {
			perFail[i] = []int{f[q] - 1, f[q]}
		}
	}
	// Microround annotations 0..micro, each formatted once.
	notes := make([]string, micro+1)
	for m := range notes {
		notes[m] = strconv.Itoa(m)
	}

	choices := cartesianInts(perFail)
	opts := make([][]pc.Option, len(survivors))
	for i := range opts {
		opts[i] = make([]pc.Option, len(choices))
	}
	for ci, mu := range choices {
		from := make([]*views.View, 0, len(cur))
		ann := make([]string, 0, len(cur))
		for _, v := range cur {
			m := micro
			if j, failing := failIdx[v.P]; failing {
				if m = mu[j]; m < 1 {
					continue
				}
			}
			from = append(from, v)
			ann = append(ann, notes[m])
		}
		h := views.NewHeard(from, ann)
		for i, sv := range survivors {
			opts[i][ci] = pc.NewOption(h.View(sv.P))
		}
	}
	return opts, nil
}

// cartesianInts enumerates the cartesian product of the given option
// lists.
func cartesianInts(opts [][]int) [][]int {
	out := [][]int{{}}
	for _, o := range opts {
		var next [][]int
		for _, prefix := range out {
			for _, x := range o {
				row := make([]int, len(prefix)+1)
				copy(row, prefix)
				row[len(prefix)] = x
				next = append(next, row)
			}
		}
		out = next
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
