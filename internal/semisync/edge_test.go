package semisync

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
)

func TestParamsValidateErrors(t *testing.T) {
	bad := []Params{
		{C1: 0, C2: 1, D: 1},
		{C1: 2, C2: 1, D: 3},
		{C1: 2, C2: 3, D: 1},
		{C1: 1, C2: 1, D: 1, PerRound: -1},
		{C1: 1, C2: 1, D: 1, Total: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

func TestFailurePatternValidate(t *testing.T) {
	if err := (FailurePattern{0: 1}).Validate([]int{0, 1}, 2); err == nil {
		t.Fatal("pattern missing a failing process accepted")
	}
	if err := (FailurePattern{0: 0}).Validate([]int{0}, 2); err == nil {
		t.Fatal("microround 0 accepted")
	}
	if err := (FailurePattern{0: 3}).Validate([]int{0}, 2); err == nil {
		t.Fatal("microround beyond p accepted")
	}
	if err := (FailurePattern{0: 2, 1: 1}).Validate([]int{0, 1}, 2); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
}

func TestPatternsEmptyFailureSet(t *testing.T) {
	ps := Patterns(nil, 3)
	if len(ps) != 1 || len(ps[0]) != 0 {
		t.Fatalf("patterns for empty set = %v", ps)
	}
}

func TestPatternKeyCanonical(t *testing.T) {
	a := FailurePattern{2: 1, 0: 2}
	b := FailurePattern{0: 2, 2: 1}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestOneRoundPatternRejections(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := timing(1, 1)
	if _, err := OneRoundPattern(input, []int{9}, FailurePattern{9: 1}, p, -1); err == nil {
		t.Fatal("non-participant failure accepted")
	}
	if _, err := OneRoundPattern(input, []int{0}, FailurePattern{0: 1}, p, 1); err == nil {
		t.Fatal("forced non-failing process accepted")
	}
	if _, err := OneRoundPattern(input, []int{0}, FailurePattern{0: 99}, p, -1); err == nil {
		t.Fatal("out-of-range microround accepted")
	}
}

func TestRoundsZeroAndNegative(t *testing.T) {
	input := inputSimplex("a", "b", "c")
	p := timing(1, 1)
	res, err := build(input, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Complex.Facets()) != 1 {
		t.Fatalf("M^0 should be the input closure; got %v", res.Complex)
	}
	if _, err := build(input, p, -1); err == nil {
		t.Fatal("negative round count accepted")
	}
}

func TestMicroCeiling(t *testing.T) {
	tests := []struct {
		c1, d, want int
	}{
		{1, 2, 2},
		{2, 5, 3},
		{3, 3, 1},
		{2, 4, 2},
	}
	for _, tt := range tests {
		p := Params{C1: tt.c1, C2: tt.c1, D: tt.d}
		if got := p.Micro(); got != tt.want {
			t.Fatalf("micro(c1=%d, d=%d) = %d, want %d", tt.c1, tt.d, got, tt.want)
		}
	}
}

func TestViewSetForcedSingleton(t *testing.T) {
	ids := []int{0, 1}
	fail := []int{0}
	f := FailurePattern{0: 2}
	full := ViewSet(ids, fail, f, 2, -1)
	forced := ViewSet(ids, fail, f, 2, 0)
	if len(full) != 2 || len(forced) != 1 {
		t.Fatalf("|[F]| = %d, |[F up 0]| = %d", len(full), len(forced))
	}
	// The forced view set is contained in the full one.
	if forced[0] != full[0] && forced[0] != full[1] {
		t.Fatalf("forced view %q not in [F] = %v", forced[0], full)
	}
}

// TestOneRoundParallelMatchesOneRound: the one-round complex Build
// returns is the union of the Lemma 19 pieces M^1_{K,F}(S) over the
// ordered (K, F) pairs.
func TestOneRoundParallelMatchesOneRound(t *testing.T) {
	p := Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}
	input := inputSimplex("a", "b", "c")
	got, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := pc.NewResult()
	for _, ip := range OrderedPseudospheres(input.IDs(), p) {
		piece, err := OneRoundPattern(input, ip.Fail, ip.Pattern, p, -1)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(piece)
	}
	if got.Complex.CanonicalHash() != want.Complex.CanonicalHash() {
		t.Error("Build's complex differs from the union of the Lemma 19 pieces")
	}
}

// TestRoundsParallelMatchesSerial shares one operator value between
// concurrent builds: its option tables are read from every build at once
// (the -race run checks the operator keeps no mutable state), and each
// build must match one made before any of them (roundop's differential
// table pins builds of the same parameters).
func TestRoundsParallelMatchesSerial(t *testing.T) {
	p := Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}
	input := inputSimplex("a", "b", "c")
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
	p := Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}
	_, err := roundop.Build(ctx, p.Operator(), inputSimplex("a", "b", "c"), 2, roundop.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
