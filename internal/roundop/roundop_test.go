package roundop_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// emptyOperator yields no branches: the model admits no executions.
type emptyOperator struct{}

func (emptyOperator) Branches([]*views.View) ([]roundop.Branch, error) { return nil, nil }

// failingOperator reports an enumeration error.
type failingOperator struct{ err error }

func (o failingOperator) Branches([]*views.View) ([]roundop.Branch, error) { return nil, o.err }

func TestRoundsNegative(t *testing.T) {
	if _, err := roundop.Build(context.Background(), emptyOperator{}, input(2), -1, roundop.Options{}); err == nil {
		t.Fatal("Build must reject negative round counts")
	}
}

func TestRoundsZeroIsInput(t *testing.T) {
	res, err := roundop.Build(context.Background(), emptyOperator{}, input(2), 0, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.Facets(); len(got) != 1 || got[0].Dim() != 2 {
		t.Fatalf("Build(r=0) must contain exactly the input facet, got %v", got)
	}
}

func TestEmptyOperatorYieldsEmptyComplex(t *testing.T) {
	res, err := roundop.Build(context.Background(), emptyOperator{}, input(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Complex.Facets()) != 0 {
		t.Fatal("an operator with no branches must produce an empty complex")
	}
}

func TestOperatorErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	if _, err := roundop.Build(context.Background(), failingOperator{boom}, input(2), 1, roundop.Options{}); !errors.Is(err, boom) {
		t.Fatalf("Build must surface the operator error, got %v", err)
	}
}

func TestBranchResultsPartitionSync(t *testing.T) {
	// The async operator has exactly one branch (one pseudosphere,
	// Lemma 11): BranchResults must return one piece equal to the
	// one-round complex.
	op := asyncmodel.Params{N: 2, F: 1}.Operator()
	pieces, err := roundop.BranchResults(op, input(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 {
		t.Fatalf("async one-round complex is a single pseudosphere, got %d pieces", len(pieces))
	}
	whole, err := roundop.Build(context.Background(), op, input(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pieces[0].Complex.CanonicalHash() != whole.Complex.CanonicalHash() {
		t.Fatal("single branch piece must equal the one-round complex")
	}
}

func TestRoundsParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	_, err := roundop.Build(ctx, op, input(3), 2, roundop.Options{})
	if err == nil {
		t.Fatal("a pre-cancelled context must abort the construction")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("unexpected cancellation error: %v", err)
	}
}

// mergeOrderInvariance: merging per-branch pieces reproduces the whole,
// regardless of order — the property a distributed build's merge relies
// on.
func TestMergeOrderInvariance(t *testing.T) {
	op := asyncmodel.Params{N: 2, F: 2}.Operator()
	pieces, err := roundop.BranchResults(op, input(2))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := roundop.Build(context.Background(), op, input(2), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := pc.NewResult()
	for i := len(pieces) - 1; i >= 0; i-- {
		merged.Merge(pieces[i])
	}
	if merged.Complex.CanonicalHash() != whole.Complex.CanonicalHash() {
		t.Fatal("reverse-order merge of branch pieces must equal the whole")
	}
	if len(merged.Views) != len(whole.Views) {
		t.Fatalf("merged views %d != whole %d", len(merged.Views), len(whole.Views))
	}
}
