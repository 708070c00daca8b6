package syncmodel

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{PerRound: -1, Total: 0}).Validate(); err == nil {
		t.Fatal("negative per-round bound accepted")
	}
	if err := (Params{PerRound: 0, Total: -1}).Validate(); err == nil {
		t.Fatal("negative total bound accepted")
	}
	if err := (Params{PerRound: 1, Total: 2}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestOneRoundExactlyRejectsNonParticipant(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	if _, err := OneRoundExactly(input, []int{7}); err == nil {
		t.Fatal("non-participant failure accepted")
	}
}

func TestOneRoundFullyHeardRejectsNonFailing(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	if _, err := OneRoundFullyHeard(input, []int{0}, 1); err == nil {
		t.Fatal("forced process that is not failing accepted")
	}
}

func TestAllFailingYieldsEmpty(t *testing.T) {
	input := inputSimplex("a", "b")
	res, err := OneRoundExactly(input, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complex.IsEmpty() {
		t.Fatalf("no survivors should mean no vertices; got %v", res.Complex)
	}
}

func TestRoundsZeroAndNegative(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{PerRound: 1, Total: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Complex.Facets()) != 1 || res.Complex.Facets()[0].Dim() != 2 {
		t.Fatalf("S^0 should be the input closure; got %v", res.Complex)
	}
	if _, err := build(input, Params{PerRound: 1, Total: 1}, -2); err == nil {
		t.Fatal("negative round count accepted")
	}
}

// TestZeroFailureBudgetIsDegenerate checks that with k=0 the one-round
// complex is a single simplex (the failure-free pseudosphere over
// singleton sets, per Lemma 4's first identity).
func TestZeroFailureBudgetIsDegenerate(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	res, err := build(input, Params{PerRound: 0, Total: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	facets := res.Complex.Facets()
	if len(facets) != 1 || facets[0].Dim() != 2 {
		t.Fatalf("k=0 complex should be one triangle; got %v", facets)
	}
}

// TestTotalBelowPerRound checks the effective bound is the minimum of the
// two budgets.
func TestTotalBelowPerRound(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	limited, err := build(input, Params{PerRound: 2, Total: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	exactlyOne, err := build(input, Params{PerRound: 1, Total: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !limited.Complex.Equal(exactlyOne.Complex) {
		t.Fatal("Total=1 must cap PerRound=2 to one failure")
	}
}

// TestOneRoundParallelMatchesOneRound: the one-round complex Build
// returns is the union of the Lemma 14 pieces S^1_K(S) over the failure
// sets K.
func TestOneRoundParallelMatchesOneRound(t *testing.T) {
	p := Params{PerRound: 1, Total: 3}
	input := inputSimplex("a", "b", "c", "d")
	got, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := pc.NewResult()
	for _, fail := range FailureSets(input.IDs(), p.PerRound) {
		piece, err := OneRoundExactly(input, fail)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(piece)
	}
	if got.Complex.CanonicalHash() != want.Complex.CanonicalHash() {
		t.Error("Build's complex differs from the union of the Lemma 14 pieces")
	}
}

// TestRoundsParallelMatchesSerial shares one operator value between
// concurrent builds: its option tables are read from every build at once
// (the -race run checks the operator keeps no mutable state), and each
// build must match one made before any of them (roundop's differential
// table pins builds of the same parameters).
func TestRoundsParallelMatchesSerial(t *testing.T) {
	p := Params{PerRound: 1, Total: 2}
	input := inputSimplex("a", "b", "c", "d")
	op := p.Operator()
	want, err := roundop.Build(context.Background(), op, input, 2, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, 4)
	var wg sync.WaitGroup
	for g := range hashes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := roundop.Build(context.Background(), op, input, 2, roundop.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			hashes[g] = res.Complex.CanonicalHash()
		}(g)
	}
	wg.Wait()
	for g, h := range hashes {
		if h != want.Complex.CanonicalHash() {
			t.Errorf("concurrent build %d diverged from the reference build", g)
		}
	}
}

func TestRoundsParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{PerRound: 1, Total: 2}
	_, err := roundop.Build(ctx, p.Operator(), inputSimplex("a", "b", "c", "d"), 2, roundop.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
