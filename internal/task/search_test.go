package task

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

// roundAnnotated builds a real one-round async protocol complex annotated
// with the values-seen rule.
func roundAnnotated(t testing.TB, n, f int) *Annotated {
	t.Helper()
	verts := make([]topology.Vertex, n+1)
	for i := range verts {
		verts[i] = topology.Vertex{P: i, Label: fmt.Sprintf("%d", i)}
	}
	res, err := roundop.Build(context.Background(), asyncmodel.Params{N: n, F: f}.Operator(), mustSimplex(verts...), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return AnnotateViews(res.Complex, res.Views)
}

func TestFindDecisionParallelNodeLimit(t *testing.T) {
	a := roundAnnotated(t, 2, 2) // unsolvable: the search must exhaust
	_, ok, err := FindDecisionParallelCtx(context.Background(), a, 2, 10, 1)
	if ok {
		t.Fatal("k=2 on a wait-free round should be unsolvable")
	}
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("expected ErrSearchLimit with a 10-node budget, got %v", err)
	}
	// Consensus path ignores the limit entirely.
	if _, _, err := FindDecisionParallelCtx(context.Background(), a, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestFindDecisionCancel: the search checks ctx at every node, so on a
// search far longer than the test (wait-free 3-set agreement on four
// processes) it returns ctx.Err() at once for a cancelled ctx and soon
// after a deadline passes.
func TestFindDecisionCancel(t *testing.T) {
	a := roundAnnotated(t, 3, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := FindDecisionParallelCtx(cancelled, a, 3, 0, 1); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok, err := FindDecisionParallelCtx(ctx, a, 3, 0, 1); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("20 ms deadline: ok=%v err=%v", ok, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the search returned %v after its 20 ms deadline", d)
	}
}

func BenchmarkFindDecisionParallel(b *testing.B) {
	a := roundAnnotated(b, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := FindDecisionParallelCtx(context.Background(), a, 2, 0, 1); ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}
