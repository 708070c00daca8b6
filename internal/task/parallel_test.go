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
// with the values-seen rule — the workload the parallel search targets.
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

// The search must return the same answer at every worker count as at
// one: existence, and the same valid certificate.
func TestFindDecisionParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		n, f, k int
	}{
		{2, 1, 2}, // solvable: k > f
		{2, 2, 2}, // unsolvable: wait-free 2-set agreement on 3 processes
		{3, 2, 3}, // solvable
	}
	for _, tc := range cases {
		a := roundAnnotated(t, tc.n, tc.f)
		wantDM, wantOK, err := decide(a, tc.k, 0)
		if err != nil {
			t.Fatalf("n=%d f=%d k=%d: one worker: %v", tc.n, tc.f, tc.k, err)
		}
		for _, workers := range []int{0, 2, 4, 8} {
			dm, ok, err := FindDecisionParallelCtx(context.Background(), a, tc.k, 0, workers)
			if err != nil {
				t.Fatalf("n=%d f=%d k=%d w=%d: %v", tc.n, tc.f, tc.k, workers, err)
			}
			if ok != wantOK {
				t.Fatalf("n=%d f=%d k=%d w=%d: ok=%v, one worker says %v", tc.n, tc.f, tc.k, workers, ok, wantOK)
			}
			if !ok {
				continue
			}
			if err := CheckDecision(a, dm, tc.k); err != nil {
				t.Fatalf("n=%d f=%d k=%d w=%d: invalid map: %v", tc.n, tc.f, tc.k, workers, err)
			}
			for v, val := range wantDM {
				if dm[v] != val {
					t.Fatalf("n=%d f=%d k=%d w=%d: decision at %v = %q, one worker %q", tc.n, tc.f, tc.k, workers, v, dm[v], val)
				}
			}
		}
	}
}

// The lowest-successful-branch rule makes the returned map deterministic:
// repeated runs on four workers return the identical map, equal to the
// one-worker map.
func TestFindDecisionParallelDeterministic(t *testing.T) {
	a := roundAnnotated(t, 2, 1)
	serial, ok, err := decide(a, 2, 0)
	if err != nil || !ok {
		t.Fatalf("one worker: ok=%v err=%v", ok, err)
	}
	for trial := 0; trial < 5; trial++ {
		dm, ok, err := FindDecisionParallelCtx(context.Background(), a, 2, 0, 4)
		if err != nil || !ok {
			t.Fatalf("trial %d: ok=%v err=%v", trial, ok, err)
		}
		for v, val := range serial {
			if dm[v] != val {
				t.Fatalf("trial %d: decision at %v = %q, one worker %q", trial, v, dm[v], val)
			}
		}
	}
}

func TestFindDecisionParallelNodeLimit(t *testing.T) {
	a := roundAnnotated(t, 2, 2) // unsolvable: the search must exhaust
	_, ok, err := FindDecisionParallelCtx(context.Background(), a, 2, 10, 4)
	if ok {
		t.Fatal("k=2 on a wait-free round should be unsolvable")
	}
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("expected ErrSearchLimit with a 10-node budget, got %v", err)
	}
	// Consensus path ignores workers and the limit entirely.
	if _, _, err := FindDecisionParallelCtx(context.Background(), a, 1, 1, 4); err != nil {
		t.Fatal(err)
	}
}

// TestFindDecisionCancel: the search checks ctx before every branch and
// at every node, so on a search far longer than the test (wait-free 3-set
// agreement on four processes) it returns ctx.Err() at once for a
// cancelled ctx and soon after a deadline passes, at one worker and at
// four.
func TestFindDecisionCancel(t *testing.T) {
	a := roundAnnotated(t, 3, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, ok, err := FindDecisionParallelCtx(cancelled, a, 3, 0, workers); ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d, cancelled ctx: ok=%v err=%v", workers, ok, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, ok, err := FindDecisionParallelCtx(ctx, a, 3, 0, workers)
		cancel()
		if ok || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d, 20 ms deadline: ok=%v err=%v", workers, ok, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("workers=%d: the search returned %v after its 20 ms deadline", workers, d)
		}
	}
}

func BenchmarkFindDecisionParallel(b *testing.B) {
	a := roundAnnotated(b, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := FindDecisionParallelCtx(context.Background(), a, 2, 0, 4); ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}
