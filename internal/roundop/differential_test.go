package roundop_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
)

// The differential pin: every model's operator built through Build must
// reproduce each row's golden complex — CanonicalHash, f-vector and view
// count — on every worker count, without a checkpoint and through an
// in-memory one at two flush cadences; and a pre-cancelled context must
// stop every configuration. Run under -race in CI, this is the contract
// that the single build path changes no output anywhere.
//
// testdata/differential.json holds what the pre-engine serial builders
// produced before they were removed. Those builders read the engine's own
// option tables, so the independent check of the tables is
// internal/integration: exhaustive simulator runs of the full-information
// protocol reach the same complex on every row a simulator can run. The
// other rows (M^2, IIS, the empty below-threshold input) rest on these
// values and, for IIS, on its closed-form tests.

func input(n int) topology.Simplex {
	return testutil.Labeled(n, "v")
}

// diffCase is one row of the table: an r-round build of op over in, named
// as its golden row is.
type diffCase struct {
	model, name string
	in          topology.Simplex
	op          roundop.Operator
	r           int
}

// asyncCase builds A^r over an m-dimensional input face with n and f
// global (m < n-f is Section 6's too-few-participants input).
func asyncCase(n, m, f, r int) diffCase {
	p := asyncmodel.Params{N: n, F: f}
	return diffCase{"async", fmt.Sprintf("A^%d n=%d m=%d f=%d", r, n, m, f), input(m), p.Operator(), r}
}

func syncCase(n, k, f, r int) diffCase {
	p := syncmodel.Params{PerRound: k, Total: f}
	return diffCase{"sync", fmt.Sprintf("S^%d n=%d k=%d f=%d", r, n, k, f), input(n), p.Operator(), r}
}

func semisyncCase(n, r int, p semisync.Params) diffCase {
	return diffCase{"semisync", fmt.Sprintf("M^%d n=%d %+v", r, n, p), input(n), p.Operator(), r}
}

func iisCase(n, r int) diffCase {
	return diffCase{"iis", fmt.Sprintf("IIS^%d n=%d", r, n), input(n), iis.Operator(), r}
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

// goldenRow is one differential row's pinned complex.
type goldenRow struct {
	Row     string `json:"row"`
	Hash    string `json:"hash"`
	FVector []int  `json:"f_vector"`
	Views   int    `json:"views"`
}

// golden reads testdata/differential.json, keyed by row name.
func golden(t *testing.T) map[string]goldenRow {
	t.Helper()
	raw, err := os.ReadFile("testdata/differential.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]goldenRow, len(rows))
	for _, row := range rows {
		out[row.Row] = row
	}
	return out
}

// runDifferential checks the table's rows for one model against every
// Build configuration.
func runDifferential(t *testing.T, model string) {
	pins := golden(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range differential {
		if tc.model != model {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			want, ok := pins[tc.name]
			if !ok {
				t.Fatalf("no golden row %q", tc.name)
			}
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
					if h := got.Complex.CanonicalHash(); h != want.Hash {
						t.Errorf("%s: hash %s != golden %s", cfg, h, want.Hash)
					}
					if fv := got.Complex.FVector(); !slices.Equal(fv, want.FVector) {
						t.Errorf("%s: f-vector %v != golden %v", cfg, fv, want.FVector)
					}
					if len(got.Views) != want.Views {
						t.Errorf("%s: %d views != golden %d", cfg, len(got.Views), want.Views)
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
					case err == nil && want.Views != 0:
						t.Errorf("%s: pre-cancelled build completed", cfg)
					case err == nil && got.Complex.CanonicalHash() != want.Hash:
						t.Errorf("%s: pre-cancelled empty build diverged from golden", cfg)
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
