// Package integration cross-validates the two halves of the repository:
// executions of the full-information protocol on the message-passing
// runtime (internal/sim) must land exactly on simplexes of the
// combinatorially constructed protocol complexes (internal/syncmodel,
// internal/asyncmodel). This is the operational content of the paper's
// protocol-complex definition: a set of local states spans a simplex iff
// some execution produces them.
package integration

import (
	"context"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

func inputSimplex(labels ...string) topology.Simplex {
	vs := make([]topology.Vertex, len(labels))
	for i, l := range labels {
		vs[i] = topology.Vertex{P: i, Label: l}
	}
	return mustSimplex(vs...)
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

// TestSyncRuntimeMatchesComplex runs one synchronous full-information
// round under EVERY crash schedule with at most one failure and checks the
// surviving views form a simplex of S^1; conversely, every facet of S^1 is
// realized by some schedule.
func TestSyncRuntimeMatchesComplex(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	input := inputSimplex(inputs...)
	combinatorial, err := roundop.Build(context.Background(), syncmodel.Params{PerRound: 1, Total: 1}.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}

	realized := topology.NewComplex()
	for _, cs := range sim.EnumerateCrashSchedules(len(inputs), 1, 1) {
		out, err := sim.RunSync(inputs, protocols.NewFullInfo(1), cs, 2)
		if err != nil {
			t.Fatal(err)
		}
		facet := facetFromRun(t, out.Decisions)
		if !combinatorial.Complex.Has(facet) {
			t.Fatalf("runtime execution %v (crashes %v) not in S^1", facet, cs)
		}
		realized.Add(facet)
	}
	// Completeness: the runtime realizes every facet of the construction.
	for _, f := range combinatorial.Complex.Facets() {
		if !realized.Has(f) {
			t.Fatalf("facet %v of S^1 not realized by any crash schedule", f)
		}
	}
}

// TestSyncTwoRoundRuntimeInComplex samples two-round schedules and checks
// membership in S^2.
func TestSyncTwoRoundRuntimeInComplex(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	input := inputSimplex(inputs...)
	combinatorial, err := roundop.Build(context.Background(), syncmodel.Params{PerRound: 1, Total: 1}.Operator(), input, 2, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range sim.EnumerateCrashSchedules(len(inputs), 1, 2) {
		out, err := sim.RunSync(inputs, protocols.NewFullInfo(2), cs, 3)
		if err != nil {
			t.Fatal(err)
		}
		facet := facetFromRun(t, out.Decisions)
		if !combinatorial.Complex.Has(facet) {
			t.Fatalf("two-round execution %v (crashes %v) not in S^2", facet, cs)
		}
	}
}

// TestAsyncRuntimeMatchesComplex runs the full-information protocol under
// many random asynchronous schedules (with FIFO catch-up exercised) and
// checks the final views always form a simplex of A^r.
func TestAsyncRuntimeMatchesComplex(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	input := inputSimplex(inputs...)
	p := asyncmodel.Params{N: 2, F: 1}
	for _, rounds := range []int{1, 2} {
		combinatorial, err := roundop.Build(context.Background(), p.Operator(), input, rounds, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 100; seed++ {
			sched := sim.NewRandomAsyncSchedule(len(inputs), p.F, seed)
			out, err := sim.RunAsync(inputs, protocols.NewFullInfo(rounds), nil, sched, rounds+1)
			if err != nil {
				t.Fatal(err)
			}
			facet := facetFromRun(t, out.Decisions)
			if !combinatorial.Complex.Has(facet) {
				t.Fatalf("r=%d seed=%d: execution %v not in A^%d", rounds, seed, facet, rounds)
			}
		}
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
