package asyncmodel

import (
	"context"
	"testing"

	"pseudosphere/internal/homology"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/task"
	"pseudosphere/internal/testutil/coreutil"
	"pseudosphere/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: -1, F: 0},
		{N: 2, F: -1},
		{N: 2, F: 4},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if err := (Params{N: 2, F: 3}).Validate(); err != nil {
		t.Fatalf("f = n+1 (wait-free) is legal: %v", err)
	}
}

func TestRoundsRejectsNegative(t *testing.T) {
	if _, err := build(inputSimplex("a", "b", "c"), Params{N: 2, F: 1}, -1); err == nil {
		t.Fatal("negative round count accepted")
	}
	if _, err := build(inputSimplex("a"), Params{N: 2, F: -1}, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestRoundsParallelDegenerate: with too few participants (Section 6's
// m < n-f convention) the complex is empty.
func TestRoundsParallelDegenerate(t *testing.T) {
	p := Params{N: 4, F: 1}
	got, err := roundop.Build(context.Background(), p.Operator(), inputSimplex("a", "b", "c"), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complex.Size() != 0 {
		t.Errorf("expected empty complex, got size %d", got.Complex.Size())
	}
	if _, err := roundop.Build(context.Background(), p.Operator(), inputSimplex("a", "b", "c"), -1, roundop.Options{}); err == nil {
		t.Error("expected error for negative round count")
	}
}

func TestRoundsZeroIsInputClosure(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{N: 2, F: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A^0 is the input simplex itself, with views equal to the inputs.
	if len(res.Complex.Facets()) != 1 {
		t.Fatalf("facets = %v", res.Complex.Facets())
	}
	facet := res.Complex.Facets()[0]
	if facet.Dim() != 2 {
		t.Fatalf("facet dim = %d", facet.Dim())
	}
	for _, vert := range facet {
		view := res.Views[vert]
		if view.Round != 0 {
			t.Fatalf("round-0 vertex has round %d", view.Round)
		}
	}
}

// TestParticipantsOnly checks that A^1(S^m) has vertices only for the
// participants of S^m.
func TestParticipantsOnly(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	face := input[:2] // participants 0, 1
	res, err := build(face, Params{N: 2, F: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, vert := range res.Complex.Vertices() {
		if vert.P == 2 {
			t.Fatalf("non-participant vertex %v", vert)
		}
	}
	if res.Complex.IsEmpty() {
		t.Fatal("two participants meet the n-f threshold and must yield executions")
	}
}

// TestVertexSharingAcrossInputs checks that executions from different
// input simplexes share vertices exactly when a process's view coincides.
func TestVertexSharingAcrossInputs(t *testing.T) {
	p := Params{N: 2, F: 1}
	res := coreutil.MustBuildOverInputs(p.Operator(), p.N, []string{"0", "1"}, 1)
	// Process 0 hearing only {0,1} with inputs 0,0 arises from both
	// inputs (0,0,0) and (0,0,1): count how many input-facet runs produce
	// each vertex by reconstruction — sharing means total vertex count is
	// far below 3 views * 8 inputs.
	verts := len(res.Complex.Vertices())
	// Per process: heard sets {self,other1}, {self,other2}, {self,both}
	// with binary inputs on heard processes: 4+4+8 = 16 views; times 3
	// processes = 48.
	if verts != 48 {
		t.Fatalf("vertices = %d, want 48 (canonical sharing)", verts)
	}
}

func TestLemma11MapRejectsForeignVertex(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{N: 2, F: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Use a mismatched input simplex lacking process 2.
	if _, err := Lemma11Map(res, input[:2]); err == nil {
		t.Fatal("expected error for vertex without input vertex")
	}
	_ = topology.Simplex{}
}

// TestThreeRoundConnectivityAtScale checks Lemma 12 on the largest
// instance in the suite: A^3 for n=2, f=1 has 19683 facets and is exactly
// 0-connected — the lemma promises (m-(n-f)-1) = 0, and indeed higher
// homology is nonzero, showing the bound on connectivity is what f buys
// and no more.
func TestThreeRoundConnectivityAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second complex construction")
	}
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{N: 2, F: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Complex.Facets()); got != 19683 { // 27^3
		t.Fatalf("facets = %d, want 27^3", got)
	}
	betti := homology.ReducedBettiZ2(res.Complex)
	if betti[0] != 0 {
		t.Fatalf("A^3 should be 0-connected; betti %v", betti)
	}
	if betti[1] == 0 {
		t.Fatalf("A^3 with f=1 should NOT be 1-connected; betti %v", betti)
	}
}

// TestNoConsensusAtTwoRounds strengthens the Corollary 13 check: even two
// asynchronous rounds admit no consensus decision map (the impossibility
// holds at every round count; the paper's Lemma 12 keeps A^r connected for
// all r).
func TestNoConsensusAtTwoRounds(t *testing.T) {
	res := coreutil.MustBuildOverInputs(Params{N: 2, F: 1}.Operator(), 2, []string{"0", "1"}, 2)
	ann := task.AnnotateViews(res.Complex, res.Views)
	if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, 1, 0, 1); err != nil || found {
		t.Fatalf("found=%v err=%v; two-round consensus must remain impossible", found, err)
	}
}
