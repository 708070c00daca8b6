package pseudosphere_test

// One benchmark per reproduced table/figure (E1-E12 in DESIGN.md; E13-E15 are
// covered by their packages), plus ablation benches for engine-level design choices: sparse-GF(2)
// versus dense-field homology and the decision-map search fast path.

import (
	"context"
	"slices"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/bounds"
	"pseudosphere/internal/core"
	"pseudosphere/internal/experiments"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/sperner"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/task"
	"pseudosphere/internal/testutil/coreutil"
	"pseudosphere/internal/topology"
)

func inputSimplex(m int) topology.Simplex {
	labels := []string{"a", "b", "c", "d", "e"}
	vs := make([]topology.Vertex, m+1)
	for i := 0; i <= m; i++ {
		vs[i] = topology.Vertex{P: i, Label: labels[i]}
	}
	return mustSimplex(vs...)
}

func BenchmarkE1Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := mustUniform(core.ProcessSimplex(2), []string{"0", "1"})
		if homology.BettiZ2(ps)[2] != 1 {
			b.Fatal("not a sphere")
		}
	}
}

func BenchmarkE2Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		circle := mustUniform(core.ProcessSimplex(1), []string{"0", "1"})
		k33 := mustUniform(core.ProcessSimplex(1), []string{"0", "1", "2"})
		if homology.BettiZ2(circle)[1]+homology.BettiZ2(k33)[1] != 5 {
			b.Fatal("wrong homology")
		}
	}
}

func BenchmarkE3AsyncOneRound(b *testing.B) {
	input := inputSimplex(3)
	p := asyncmodel.Params{N: 3, F: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ps, err := asyncmodel.Lemma11Pseudosphere(input, p)
		if err != nil {
			b.Fatal(err)
		}
		m, err := asyncmodel.Lemma11Map(res, input)
		if err != nil {
			b.Fatal(err)
		}
		if err := topology.VerifyIsomorphism(res.Complex, ps, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4AsyncConnectivity(b *testing.B) {
	input := inputSimplex(2)
	p := asyncmodel.Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 2, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !homology.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 12 violated")
		}
	}
}

// The parallel/cached engine variants of BenchmarkE4AsyncConnectivity:
// the complex is rebuilt every iteration (construction is part of the E4
// workload), so the cached variant measures what the experiments see when
// they re-query a complex already reduced once.
func benchE4Engine(b *testing.B, e *homology.Engine) {
	input := inputSimplex(2)
	p := asyncmodel.Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 2, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := e.IsKConnectedCtx(context.Background(), res.Complex, 0); err != nil || !ok {
			b.Fatal("Lemma 12 violated")
		}
	}
}

func BenchmarkE4AsyncConnectivityParallel(b *testing.B) {
	benchE4Engine(b, homology.NewEngine(4, nil))
}

func BenchmarkE4AsyncConnectivityCached(b *testing.B) {
	benchE4Engine(b, homology.NewEngine(4, homology.NewCache()))
}

func BenchmarkE5SyncOneRound(b *testing.B) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.IsEmpty() {
			b.Fatal("empty complex")
		}
	}
}

func BenchmarkE6SyncIntersections(b *testing.B) {
	input := inputSimplex(3)
	sets := syncmodel.FailureSets(input.IDs(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := topology.NewComplex()
		for ti, fail := range sets {
			cur, err := syncmodel.OneRoundExactly(input, fail)
			if err != nil {
				b.Fatal(err)
			}
			if ti > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := syncmodel.Lemma15RHS(input, fail)
				if err != nil {
					b.Fatal(err)
				}
				if !lhs.Equal(rhs.Complex) {
					b.Fatal("Lemma 15 violated")
				}
			}
			prefix.UnionWith(cur.Complex)
		}
	}
}

func BenchmarkE7SyncConnectivity(b *testing.B) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 2, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !homology.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 17 violated")
		}
	}
}

// The engine variants of BenchmarkE7SyncConnectivity (see benchE4Engine).
func benchE7Engine(b *testing.B, e *homology.Engine) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 2, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := e.IsKConnectedCtx(context.Background(), res.Complex, 0); err != nil || !ok {
			b.Fatal("Lemma 17 violated")
		}
	}
}

func BenchmarkE7SyncConnectivityParallel(b *testing.B) {
	benchE7Engine(b, homology.NewEngine(4, nil))
}

func BenchmarkE7SyncConnectivityCached(b *testing.B) {
	benchE7Engine(b, homology.NewEngine(4, homology.NewCache()))
}

func BenchmarkE8SyncBoundTable(b *testing.B) {
	inputs := []string{"0", "1", "2"}
	schedules, err := sim.EnumerateCrashSchedules(context.Background(), len(inputs), 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range schedules {
			out, err := sim.RunSync(inputs, protocols.NewFloodSet(1), cs, 3)
			if err != nil {
				b.Fatal(err)
			}
			if err := out.CheckConsensus(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE9SemiSyncOneRound(b *testing.B) {
	input := inputSimplex(2)
	p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.IsEmpty() {
			b.Fatal("empty complex")
		}
	}
}

func BenchmarkE10SemiSyncBound(b *testing.B) {
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	inputs := []string{"2", "0", "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sim.RunTimed(inputs, protocols.NewSemiSyncKSet(1, 1), timing,
			sim.LockstepSchedule{Timing: timing}, nil, 10000)
		if err != nil {
			b.Fatal(err)
		}
		lb, err := bounds.SemiSyncTimeLowerBound(1, 1, timing.C1, timing.C2, timing.D)
		if err != nil {
			b.Fatal(err)
		}
		for _, at := range run.DecidedAt {
			if float64(at) < lb.Float() {
				b.Fatal("decision below the lower bound")
			}
		}
	}
}

func BenchmarkE11PseudosphereAlgebra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11PseudosphereAlgebra(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12Sperner(b *testing.B) {
	base := inputSimplex(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd, carrier, err := sperner.Subdivide(base, 2)
		if err != nil {
			b.Fatal(err)
		}
		col := sperner.FirstOwnerColoring(sd, carrier)
		if _, err := sperner.VerifyLemma(base, sd, carrier, col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19BuildReduceA1n3f3 is the E19 reduction canary gated by
// .github/bench_baseline.json: one A^1 n=3 f=3 round complex (6560
// simplexes) built and GF(2)-reduced end to end by a fresh
// coreduction-enabled engine, so a regression in either the unified
// round operator or the Morse preprocessing moves it.
func BenchmarkE19BuildReduceA1n3f3(b *testing.B) {
	input := inputSimplex(3)
	p := asyncmodel.Params{N: 3, F: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), p.Operator(), input, 1, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		e := homology.NewEngine(1, nil)
		if betti, err := e.BettiZ2Ctx(context.Background(), res.Complex); err != nil || betti[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// discardCkpt is a Checkpointer that keeps nothing: every Restore is a
// fresh start and every Flush records nothing.
type discardCkpt struct{}

func (discardCkpt) Restore(int) ([]bool, *pc.Result, error) { return nil, nil, nil }
func (discardCkpt) Flush([]int, *pc.Result) error           { return nil }

// BenchmarkBuildCkpt is the checkpointed-enumeration canary gated by
// .github/bench_baseline.json: A^1 n=3 f=3 (6560 simplexes) built with
// its result handed every 8 shards to a checkpointer that discards it. It
// times what a job's build adds to the plain enumeration E3 and E19 time
// (the build loop stopping to flush), without the encoding and fsync
// BenchmarkCkptFlush times.
func BenchmarkBuildCkpt(b *testing.B) {
	input := inputSimplex(3)
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	opts := roundop.Options{Checkpoint: discardCkpt{}, FlushEvery: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), op, input, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.Size() != 6560 {
			b.Fatalf("built %d simplexes, want 6560", res.Complex.Size())
		}
	}
}

// --- field reduction: one column reducer for GF(2), GF(p) and Q ---

// benchField times betti at one worker on the r=2 complex of op over n+1
// processes, built once outside the timer; want pins the answer, which
// is the same in every field.
func benchField(b *testing.B, op roundop.Operator, n int, want []int, betti func(*topology.Complex) ([]int, error)) {
	res, err := roundop.Build(context.Background(), op, inputSimplex(n), 2, roundop.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := betti(res.Complex)
		if err != nil || !slices.Equal(got, want) {
			b.Fatalf("betti = %v, %v; want %v", got, err, want)
		}
	}
}

func bettiZ2Morse(c *topology.Complex) ([]int, error) {
	return homology.NewEngine(1, nil).BettiZ2Ctx(context.Background(), c)
}

func bettiGFpMorse(c *topology.Complex) ([]int, error) { return homology.BettiGFpMorse(c, 1048573) }

func bettiQMorse(c *topology.Complex) ([]int, error) { return homology.BettiQMorse(c), nil }

// sync n=4 k=1 r=2 (2,221 facets) is cold-sweep's tGFpSync4 template;
// its GF(p) and Q benchmarks are canaries gated by
// .github/bench_baseline.json.
var (
	sync4Op    = syncmodel.Params{PerRound: 1, Total: 2}.Operator()
	sync4Betti = []int{1, 95, 320, 5, 0}
)

func BenchmarkBettiZ2MorseSync4(b *testing.B) { benchField(b, sync4Op, 4, sync4Betti, bettiZ2Morse) }

func BenchmarkBettiGFpMorseSync4(b *testing.B) { benchField(b, sync4Op, 4, sync4Betti, bettiGFpMorse) }

func BenchmarkBettiQMorseSync4(b *testing.B) { benchField(b, sync4Op, 4, sync4Betti, bettiQMorse) }

// semisync n=4 k=1 c1=1 c2=2 d=2 r=2 (24,181 simplexes) is cold-sweep's
// tGFpSemisync4 template.
var (
	semisync4Op    = semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator()
	semisync4Betti = []int{1, 180, 1240, 10, 0}
)

func BenchmarkBettiZ2MorseSemisync4(b *testing.B) {
	benchField(b, semisync4Op, 4, semisync4Betti, bettiZ2Morse)
}

func BenchmarkBettiGFpMorseSemisync4(b *testing.B) {
	benchField(b, semisync4Op, 4, semisync4Betti, bettiGFpMorse)
}

func BenchmarkBettiQMorseSemisync4(b *testing.B) {
	benchField(b, semisync4Op, 4, semisync4Betti, bettiQMorse)
}

// benchBuild times roundop.Build of the r=2 complex of op over n+1
// processes; size pins the simplex count.
func benchBuild(b *testing.B, op roundop.Operator, n, size int) {
	input := inputSimplex(n)
	for i := 0; i < b.N; i++ {
		res, err := roundop.Build(context.Background(), op, input, 2, roundop.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Complex.Size(); got != size {
			b.Fatalf("built %d simplexes, want %d", got, size)
		}
	}
}

// BenchmarkBuildSync4 and BenchmarkBuildSemisync4 are the multi-round
// construction canaries gated by .github/bench_baseline.json: the whole
// cost of building a view per option, encoding it and inserting each
// facet, on cold-sweep's tGFpSync4 and tGFpSemisync4 complexes.
func BenchmarkBuildSync4(b *testing.B) { benchBuild(b, sync4Op, 4, 6371) }

func BenchmarkBuildSemisync4(b *testing.B) { benchBuild(b, semisync4Op, 4, 24181) }

// --- ablation benches for engine design choices ---

// BenchmarkAblationHomologySparseZ2 measures the production engine (sparse
// GF(2) column reduction) on a mid-sized protocol complex.
func BenchmarkAblationHomologySparseZ2(b *testing.B) {
	res, err := roundop.Build(context.Background(), asyncmodel.Params{N: 3, F: 3}.Operator(), inputSimplex(3), 1, roundop.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if homology.BettiZ2(res.Complex)[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// BenchmarkAblationHomologyDenseGFp measures the serial dense GF(3)
// reference, the engine's differential oracle, on A^1 n=2 f=2; the
// engine's sparse GF(p) store is timed by BenchmarkBettiGFpMorseSync4.
func BenchmarkAblationHomologyDenseGFp(b *testing.B) {
	res, err := roundop.Build(context.Background(), asyncmodel.Params{N: 2, F: 2}.Operator(), inputSimplex(2), 1, roundop.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		betti, err := homology.BettiGFp(res.Complex, 3)
		if err != nil || betti[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// BenchmarkAblationConsensusFastPath measures the exact k=1 component
// procedure against the generic backtracking search on the same instance.
func BenchmarkAblationConsensusFastPath(b *testing.B) {
	res := coreutil.MustBuildOverInputs(asyncmodel.Params{N: 2, F: 1}.Operator(), 2, []string{"0", "1"}, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, 1, 0, 1); err != nil || found {
			b.Fatal("consensus should be impossible")
		}
	}
}

// BenchmarkAblationSearchBacktracking exercises the generic search (k=2,
// solvable instance) for comparison with the fast path above.
func BenchmarkAblationSearchBacktracking(b *testing.B) {
	res := coreutil.MustBuildOverInputs(asyncmodel.Params{N: 2, F: 1}.Operator(), 2, []string{"0", "1", "2"}, 1)
	ann := task.AnnotateViews(res.Complex, res.Views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := task.FindDecisionParallelCtx(context.Background(), ann, 2, 0, 1); err != nil || !found {
			b.Fatal("2-set agreement should be solvable")
		}
	}
}
