package roundop_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

// The differential pin: every model's operator built through Build must
// agree bit for bit — CanonicalHash and view count — with the retained
// pre-engine serial implementation (LegacySerialRounds), on every worker
// count, without a checkpoint and through an in-memory one at two flush
// cadences; and a pre-cancelled context must stop every configuration.
// Run under -race in CI, this is the contract that the single build path
// changed no output anywhere.

func input(n int) topology.Simplex {
	return testutil.Labeled(n, "v")
}

// diffCase is one row of the table: an r-round build of op over in and
// the serial reference it must reproduce.
type diffCase struct {
	model, name string
	in          topology.Simplex
	op          roundop.Operator
	r           int
	legacy      func() (*pc.Result, error)
}

// asyncCase builds A^r over an m-dimensional input face with n and f
// global (m < n-f is Section 6's too-few-participants input).
func asyncCase(n, m, f, r int) diffCase {
	p := asyncmodel.Params{N: n, F: f}
	return diffCase{"async", fmt.Sprintf("A^%d n=%d m=%d f=%d", r, n, m, f), input(m), p.Operator(), r,
		func() (*pc.Result, error) { return asyncmodel.LegacySerialRounds(input(m), p, r) }}
}

func syncCase(n, k, f, r int) diffCase {
	p := syncmodel.Params{PerRound: k, Total: f}
	return diffCase{"sync", fmt.Sprintf("S^%d n=%d k=%d f=%d", r, n, k, f), input(n), p.Operator(), r,
		func() (*pc.Result, error) { return syncmodel.LegacySerialRounds(input(n), p, r) }}
}

func semisyncCase(n, r int, p semisync.Params) diffCase {
	return diffCase{"semisync", fmt.Sprintf("M^%d n=%d %+v", r, n, p), input(n), p.Operator(), r,
		func() (*pc.Result, error) { return semisync.LegacySerialRounds(input(n), p, r) }}
}

func iisCase(n, r int) diffCase {
	return diffCase{"iis", fmt.Sprintf("IIS^%d n=%d", r, n), input(n), iis.Operator(), r,
		func() (*pc.Result, error) { return iis.LegacySerialRounds(input(n), r) }}
}

var differential = []diffCase{
	asyncCase(2, 2, 1, 1), asyncCase(2, 2, 2, 1), asyncCase(3, 3, 1, 1), asyncCase(3, 3, 2, 1),
	asyncCase(3, 3, 3, 1), asyncCase(2, 2, 1, 2), asyncCase(2, 2, 2, 2), asyncCase(3, 3, 1, 2),
	asyncCase(4, 2, 1, 1),
	syncCase(2, 1, 1, 1), syncCase(3, 1, 1, 1), syncCase(3, 2, 2, 1), syncCase(3, 3, 3, 1),
	syncCase(2, 1, 2, 2), syncCase(3, 1, 2, 2), syncCase(3, 1, 3, 2),
	semisyncCase(2, 1, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}),
	semisyncCase(3, 1, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}),
	semisyncCase(2, 1, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}),
	semisyncCase(2, 2, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}),
	semisyncCase(2, 1, semisync.Params{C1: 1, C2: 3, D: 3, PerRound: 2, Total: 2}),
	semisyncCase(3, 1, semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 3}),
	iisCase(1, 1), iisCase(2, 1), iisCase(3, 1), iisCase(1, 2), iisCase(2, 2),
}

// runDifferential checks the table's rows for one model against every
// Build configuration.
func runDifferential(t *testing.T, model string) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range differential {
		if tc.model != model {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := tc.legacy()
			if err != nil {
				t.Fatal(err)
			}
			wantHash := legacy.Complex.CanonicalHash()
			for _, workers := range []int{1, 2, 3, 8, 64} {
				for _, flushEvery := range []int{0, 1, 3} {
					var ck *memCkpt
					o := roundop.Options{Workers: workers}
					if flushEvery > 0 {
						ck = &memCkpt{}
						o.Checkpoint, o.FlushEvery = ck, flushEvery
					}
					cfg := fmt.Sprintf("workers=%d flushEvery=%d", workers, flushEvery)
					got, err := roundop.Build(context.Background(), tc.op, tc.in, tc.r, o)
					if err != nil {
						t.Fatalf("%s: %v", cfg, err)
					}
					if h := got.Complex.CanonicalHash(); h != wantHash {
						t.Errorf("%s: hash %s != legacy %s", cfg, h, wantHash)
					}
					if len(got.Views) != len(legacy.Views) {
						t.Errorf("%s: %d views != legacy %d", cfg, len(got.Views), len(legacy.Views))
					}
					if ck != nil {
						for i, d := range ck.done {
							if !d {
								t.Errorf("%s: shard %d not checkpointed after a full build", cfg, i)
							}
						}
					}

					// A pre-cancelled context stops the build before its first
					// shard; only a build with no shards at all completes.
					if ck != nil {
						o.Checkpoint = &memCkpt{}
					}
					got, err = roundop.Build(cancelled, tc.op, tc.in, tc.r, o)
					switch {
					case err == nil && !legacy.Complex.IsEmpty():
						t.Errorf("%s: pre-cancelled build completed", cfg)
					case err == nil && got.Complex.CanonicalHash() != wantHash:
						t.Errorf("%s: pre-cancelled empty build diverged from legacy", cfg)
					case err != nil && !errors.Is(err, context.Canceled):
						t.Errorf("%s: pre-cancelled build returned %v, want context.Canceled", cfg, err)
					}
				}
			}
		})
	}
}

func TestDifferentialAsync(t *testing.T)    { runDifferential(t, "async") }
func TestDifferentialSync(t *testing.T)     { runDifferential(t, "sync") }
func TestDifferentialSemisync(t *testing.T) { runDifferential(t, "semisync") }
func TestDifferentialIIS(t *testing.T)      { runDifferential(t, "iis") }

// TestBuildRejectsInvalidParams: every model's operator validates its
// parameters in Branches, so Build returns an error instead of building
// an empty complex or panicking (semisync's c1 = 0 would divide by zero).
func TestBuildRejectsInvalidParams(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   roundop.Operator
	}{
		{"async f<0", asyncmodel.Params{N: 2, F: -1}.Operator()},
		{"async f>n+1", asyncmodel.Params{N: 2, F: 4}.Operator()},
		{"sync k<0", syncmodel.Params{PerRound: -1, Total: 2}.Operator()},
		{"sync f<0", syncmodel.Params{PerRound: 1, Total: -1}.Operator()},
		{"semisync c1=0", semisync.Params{C1: 0}.Operator()},
		{"semisync d<c1", semisync.Params{C1: 2, C2: 3, D: 1, PerRound: 1, Total: 1}.Operator()},
	} {
		for _, workers := range []int{1, 4} {
			if _, err := roundop.Build(context.Background(), tc.op, input(2), 1, roundop.Options{Workers: workers}); err == nil {
				t.Errorf("%s on %d workers: Build accepted invalid parameters", tc.name, workers)
			}
		}
		if _, err := roundop.EstimateFacets(tc.op, input(2), 1); err == nil {
			t.Errorf("%s: EstimateFacets accepted invalid parameters", tc.name)
		}
	}
}
