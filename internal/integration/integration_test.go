// Package integration cross-validates the two halves of the repository:
// the round complexes roundop.Build constructs from the pseudosphere
// definitions (internal/syncmodel, internal/asyncmodel, internal/semisync)
// must equal the sets of global states that exhaustive executions of the
// full-information protocol reach on the message-passing runtime
// (internal/sim). This is the operational content of Lemmas 11, 14 and
// 19: a set of local states spans a simplex iff some round-structured
// execution produces them. Comparing the two complexes by CanonicalHash
// checks inclusion (every run lands on a simplex of the construction) and
// completeness (some run realizes every facet) at once.
package integration

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

func inputSimplex(labels ...string) topology.Simplex {
	vs := make([]topology.Vertex, len(labels))
	for i, l := range labels {
		vs[i] = topology.Vertex{P: i, Label: l}
	}
	return mustSimplex(vs...)
}

// rowInput returns the input simplex of n+1 processes the roundop
// differential rows use, and its labels as the runtime's inputs.
func rowInput(n int) (topology.Simplex, []string) {
	in := testutil.Labeled(n, "v")
	inputs := make([]string, len(in))
	for i, v := range in {
		inputs[i] = v.Label
	}
	return in, inputs
}

// facetFromRun converts a run's decisions (encoded views) into a simplex.
func facetFromRun(t *testing.T, decisions map[int]string) topology.Simplex {
	t.Helper()
	vs := make([]topology.Vertex, 0, len(decisions))
	for p, enc := range decisions {
		vs = append(vs, topology.Vertex{P: p, Label: enc})
	}
	s, err := topology.NewSimplex(vs...)
	if err != nil {
		t.Fatalf("run views do not form a simplex: %v", err)
	}
	return s
}

// realized is the complex a set of runs over n1 processes reaches: one
// simplex per run, the views of its survivors.
type realized struct {
	c        *topology.Complex
	n1, runs int
}

func newRealized(n1 int) *realized { return &realized{c: topology.NewComplex(), n1: n1} }

// add records one run. Every process the run did not crash must have
// decided, and no crashed one: a survivor left undecided would add only a
// face of a real facet, which CanonicalHash cannot tell apart.
func (r *realized) add(t *testing.T, decisions map[int]string, crashed map[int]bool) {
	t.Helper()
	r.runs++
	for p := 0; p < r.n1; p++ {
		if _, decided := decisions[p]; decided == crashed[p] {
			t.Fatalf("run %d: process %d decided=%v crashed=%v; want exactly the survivors decided", r.runs, p, decided, crashed[p])
		}
	}
	if len(decisions) > 0 {
		r.c.Add(facetFromRun(t, decisions))
	}
}

// match requires the runs' complex to equal op's r-round complex over in,
// by CanonicalHash. On a mismatch it lists the construction's facets no
// run realizes and the runs' facets outside the construction.
func (r *realized) match(t *testing.T, op roundop.Operator, in topology.Simplex, rounds int) {
	t.Helper()
	built, err := roundop.Build(context.Background(), op, in, rounds, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	facets := built.Complex.Facets()
	if r.c.CanonicalHash() == built.Complex.CanonicalHash() {
		t.Logf("%d runs realize all %d facets", r.runs, len(facets))
		return
	}
	report := func(what string, ss []topology.Simplex, in *topology.Complex) {
		var out []topology.Simplex
		for _, s := range ss {
			if !in.Has(s) {
				out = append(out, s)
			}
		}
		if len(out) > 0 {
			t.Errorf("%d %s, first %v", len(out), what, out[0])
		}
	}
	report(fmt.Sprintf("of %d facets realized by none of %d runs", len(facets), r.runs), facets, r.c)
	report("run facets outside the construction", r.c.Facets(), built.Complex)
	t.FailNow()
}

// product calls visit with every digit vector of the given radixes, last
// digit fastest; an empty radix list gives one empty vector.
func product(radix []int, visit func(digits []int)) {
	digits := make([]int, len(radix))
	for {
		visit(digits)
		i := len(digits) - 1
		for ; i >= 0; i-- {
			if digits[i]++; digits[i] < radix[i] {
				break
			}
			digits[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// members lists the set bits of mask in ascending order.
func members(mask int) []int {
	var out []int
	for q := 0; mask>>q != 0; q++ {
		if mask&(1<<q) != 0 {
			out = append(out, q)
		}
	}
	return out
}

// TestSyncRuntimeMatchesComplex runs r synchronous full-information
// rounds under EVERY crash schedule with at most f failures, at most k of
// them in any one round, each crash delivering its last message to every
// subset of the other processes; the views they reach must form exactly
// S^r (Lemma 14, iterated).
func TestSyncRuntimeMatchesComplex(t *testing.T) {
	for _, row := range []struct{ n, k, f, r int }{
		{2, 1, 1, 1}, {3, 1, 1, 1}, {3, 2, 2, 1}, {3, 3, 3, 1},
		{2, 1, 1, 2}, {2, 1, 2, 2}, {3, 1, 2, 2}, {3, 1, 3, 2},
	} {
		t.Run(fmt.Sprintf("S^%d n=%d k=%d f=%d", row.r, row.n, row.k, row.f), func(t *testing.T) {
			in, inputs := rowInput(row.n)
			got := newRealized(len(inputs))
			all, err := sim.EnumerateCrashSchedules(context.Background(), len(inputs), row.f, row.r)
			if err != nil {
				t.Fatal(err)
			}
		schedules:
			for _, cs := range all {
				for _, c := range cs.FailuresPerRound() {
					if c > row.k {
						continue schedules
					}
				}
				out, err := sim.RunSync(inputs, protocols.NewFullInfo(row.r), cs, row.r)
				if err != nil {
					t.Fatal(err)
				}
				got.add(t, out.Decisions, out.Crashed)
			}
			got.match(t, syncmodel.Params{PerRound: row.k, Total: row.f}.Operator(), in, row.r)
		})
	}
}

// TestAsyncRuntimeMatchesComplex runs r asynchronous full-information
// rounds under EVERY heard-set pattern: in each round each receiver hears
// each sender set that holds itself and at least n+1-f processes. The
// views they reach must form exactly A^r (Lemma 11, iterated). FIFO
// catch-up is exercised: a sender skipped in round 1 and heard in round 2
// delivers its round-1 message first.
func TestAsyncRuntimeMatchesComplex(t *testing.T) {
	for _, row := range []struct{ n, f, r int }{
		{2, 1, 1}, {2, 2, 1}, {3, 1, 1}, {3, 2, 1}, {3, 3, 1},
		{2, 1, 2}, {2, 2, 2}, {3, 1, 2},
	} {
		t.Run(fmt.Sprintf("A^%d n=%d m=%d f=%d", row.r, row.n, row.n, row.f), func(t *testing.T) {
			in, inputs := rowInput(row.n)
			n1 := len(inputs)
			heard := make([][][]int, n1) // receiver -> admissible sender sets
			for q := range heard {
				for mask := 0; mask < 1<<n1; mask++ {
					if mask&(1<<q) != 0 && bits.OnesCount(uint(mask)) >= n1-row.f {
						heard[q] = append(heard[q], members(mask))
					}
				}
			}
			radix := make([]int, row.r*n1) // digit (round-1)*n1+q picks q's set
			runs := 1
			for i := range radix {
				radix[i] = len(heard[i%n1])
				runs *= radix[i]
			}
			if testing.Short() && runs > 1<<14 {
				t.Skipf("%d runs; skipped under -short", runs)
			}
			got := newRealized(n1)
			product(radix, func(digits []int) {
				sched := &sim.FixedAsyncSchedule{HeardSets: make(map[int]map[int][]int, row.r)}
				for round := 1; round <= row.r; round++ {
					byRecv := make(map[int][]int, n1)
					for q := range heard {
						byRecv[q] = heard[q][digits[(round-1)*n1+q]]
					}
					sched.HeardSets[round] = byRecv
				}
				out, err := sim.RunAsync(inputs, protocols.NewFullInfo(row.r), nil, sched, row.r)
				if err != nil {
					t.Fatal(err)
				}
				got.add(t, out.Decisions, out.Crashed)
			})
			got.match(t, asyncmodel.Params{N: row.n, F: row.f}.Operator(), in, row.r)
		})
	}
}

// TestAsyncAdversarialScheduleRealizesChosenFacet drives a specific facet:
// a fixed heard-set pattern must produce exactly the corresponding
// pseudosphere facet of Lemma 11.
func TestAsyncAdversarialScheduleRealizesChosenFacet(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	input := inputSimplex(inputs...)
	p := asyncmodel.Params{N: 2, F: 1}
	sched := &sim.FixedAsyncSchedule{HeardSets: map[int]map[int][]int{
		1: {
			0: {0, 1},
			1: {1, 2},
			2: {0, 2},
		},
	}}
	out, err := sim.RunAsync(inputs, protocols.NewFullInfo(1), nil, sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	facet := facetFromRun(t, out.Decisions)
	oneRound, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !oneRound.Complex.Has(facet) {
		t.Fatalf("chosen facet %v not in A^1", facet)
	}
	// Each process heard exactly two participants.
	for _, vert := range facet {
		view := oneRound.Views[vert]
		if view == nil {
			t.Fatalf("vertex %v missing from the construction's view table", vert)
		}
		if got := len(view.HeardIDs()); got != 2 {
			t.Fatalf("process %d heard %d senders, want 2", vert.P, got)
		}
	}
}
