package homology

import (
	"context"
	"sync"
	"testing"

	"pseudosphere/internal/obs"
)

// TestBettiResume checks the rank-checkpoint contract: ranks emitted by
// a full run, fed back as known ranks, reproduce the same Betti vector
// without reducing a single column; a partial known set is ignored.
func TestBettiResume(t *testing.T) {
	c := hollowTetrahedron() // dims 0..2, so ∂_1 and ∂_2 are reduced
	e := NewEngine(1, nil)
	want := BettiZ2(c)

	var mu sync.Mutex
	emitted := map[int]int{}
	got, err := e.BettiZ2CtxResume(context.Background(), c, nil, func(d, rank int) {
		mu.Lock()
		emitted[d] = rank
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, want) {
		t.Fatalf("resume-capable run betti = %v, want %v", got, want)
	}
	if len(emitted) != 2 {
		t.Fatalf("emitted ranks for %d dims, want 2 (d=1,2): %v", len(emitted), emitted)
	}

	tr := obs.NewTracker()
	ctx := obs.WithTracker(context.Background(), tr)
	got2, err := e.BettiZ2CtxResume(ctx, c, emitted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got2, want) {
		t.Fatalf("fully-restored run betti = %v, want %v", got2, want)
	}
	cs := tr.Counters()
	if cs["columns"] != 0 {
		t.Fatalf("fully-restored run reduced %d columns, want 0", cs["columns"])
	}
	if cs["ranks_restored"] != 2 {
		t.Fatalf("ranks_restored = %d, want 2", cs["ranks_restored"])
	}

	// A partial known set is ignored: the run reduces the collapsed
	// complex and lands on the same vector.
	tr3 := obs.NewTracker()
	ctx3 := obs.WithTracker(context.Background(), tr3)
	got3, err := e.BettiZ2CtxResume(ctx3, c, map[int]int{1: emitted[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got3, want) {
		t.Fatalf("partially-restored run betti = %v, want %v", got3, want)
	}
	if cs3 := tr3.Counters(); cs3["ranks_restored"] != 0 || cs3["morse_removed"] == 0 {
		t.Fatalf("partial restore counters = %v, want ranks_restored=0 and a collapse", cs3)
	}

	// Out-of-range known dimensions are ignored, not trusted, whether or
	// not the in-range ones cover every dimension.
	for _, known := range []map[int]int{
		{7: 99, -1: 3},
		{1: emitted[1], 2: emitted[2], 0: 5, 3: 9},
	} {
		got4, err := e.BettiZ2CtxResume(context.Background(), c, known, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got4, want) {
			t.Fatalf("known ranks %v changed betti: %v, want %v", known, got4, want)
		}
	}
}

// TestBettiResumeCached: the resume variant goes through the cache like
// BettiZ2Ctx, so a second call is a pure hit and emit never fires.
func TestBettiResumeCached(t *testing.T) {
	c := hollowTriangle()
	e := NewEngine(1, NewCache())
	want := BettiZ2(c)
	if got, err := e.BettiZ2CtxResume(context.Background(), c, nil, nil); err != nil || !equalInts(got, want) {
		t.Fatalf("first call = %v, %v", got, err)
	}
	emits := 0
	got, err := e.BettiZ2CtxResume(context.Background(), c, nil, func(int, int) { emits++ })
	if err != nil || !equalInts(got, want) {
		t.Fatalf("second call = %v, %v", got, err)
	}
	if emits != 0 {
		t.Fatalf("cache hit still emitted %d ranks", emits)
	}
	if hits, _, _ := e.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}
