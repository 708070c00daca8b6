package experiments

import (
	"context"
	"sync"
	"testing"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
)

// TestSharedEngineConcurrentQueries hammers the package's shared cached
// engine from many goroutines on the complexes the experiments actually
// query; under -race this certifies experiments can safely share conn.
func TestSharedEngineConcurrentQueries(t *testing.T) {
	sphere := mustUniform(core.ProcessSimplex(2), binary)
	circle := mustUniform(core.ProcessSimplex(1), binary)
	const goroutines, iters = 12, 20
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				one, err1 := conn.IsKConnectedCtx(ctx, sphere, 1)
				two, err2 := conn.IsKConnectedCtx(ctx, sphere, 2)
				if err1 != nil || err2 != nil || !one || two {
					t.Error("sphere connectivity wrong under concurrency")
					return
				}
				if b, err := conn.BettiZ2Ctx(ctx, circle); err != nil || b[0] != 1 || b[1] != 1 {
					t.Error("circle Betti wrong under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConfigureEngine checks the uncached configuration still agrees with
// the serial reference and that reconfiguration replaces the engine.
func TestConfigureEngine(t *testing.T) {
	defer ConfigureEngine(true) // restore the default for other tests
	ConfigureEngine(false)
	sphere := mustUniform(core.ProcessSimplex(2), binary)
	ctx := context.Background()
	want := homology.BettiZ2(sphere)
	got, err := conn.BettiZ2Ctx(ctx, sphere)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("uncached engine betti %v, want %v", got, want)
		}
	}
	if hits, misses, entries := EngineStats(); hits+misses != 0 || entries != 0 {
		t.Fatalf("uncached engine reported cache stats %d/%d/%d", hits, misses, entries)
	}
	ConfigureEngine(true)
	for pass := 0; pass < 2; pass++ {
		if _, err := conn.BettiZ2Ctx(ctx, sphere); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _, entries := EngineStats(); hits == 0 || entries != 1 {
		t.Fatalf("cached engine stats: hits=%d entries=%d, want hits>0 entries=1", hits, entries)
	}
}
