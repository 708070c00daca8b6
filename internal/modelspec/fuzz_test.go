package modelspec_test

// Fuzz target for the spec document — attacker-controlled bytes on
// /v1/rounds POST bodies and job submissions. The contract: Parse never
// panics, rejects with typed errors only, and validates completely
// before anything is priced or compiled — an accepted spec always
// compiles, to a bounds-respecting instance with a deterministic key.

import (
	"errors"
	"testing"

	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
)

func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name": "sync", "params": {"n": 2, "k": 1, "r": 2}}`,
		`{"name": "async", "params": {"n": 3, "f": 2}}`,
		`{"name": "iis"}`,
		`{"processes": 3, "rounds": 2, "adversary": {"kind": "crash", "per_round": 1, "total": 2}}`,
		`{"processes": 3, "adversary": {"kind": "crash", "per_round": 1}}`,
		`{"processes": 2, "input_dim": 1, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}, {"edges": [[1,0]]}]}}`,
		`{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
			"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0]]}], "schedule": [[0,1],[1]]}}`,
		`{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,0]]}]}}`,
		`{"processes": 2, "rounds": 9, "adversary": {"kind": "crash"}}`,
		`{"name": "sync", "processes": 2}`,
		`{"name": "quantum"}`,
		`[1,2,3]`,
		`{"adversary": {"kind": "graphs", "schedule": [[0]]}}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := modelspec.Parse(data)
		if err != nil {
			var me *modelspec.Error
			if !errors.As(err, &me) {
				t.Fatalf("rejection %v is not *modelspec.Error", err)
			}
			return
		}
		// Validate-before-price: Parse's acceptance is authoritative, so
		// compilation cannot fail after it.
		inst, err := spec.Compile()
		if err != nil {
			t.Fatalf("Parse accepted but Compile rejected: %v (%s)", err, data)
		}
		if inst.Key == "" || inst.Model == "" {
			t.Fatalf("compiled instance missing identity: %+v", inst)
		}
		if inst.N < 0 || inst.N > modelspec.MaxN || inst.M < 0 || inst.M > inst.N ||
			inst.R < 0 || inst.R > modelspec.MaxRounds {
			t.Fatalf("out-of-bounds instance %+v from %s", inst, data)
		}
		// Canonicalization is deterministic: same bytes, same key.
		again, err := modelspec.Parse(data)
		if err != nil {
			t.Fatalf("second Parse of accepted input failed: %v", err)
		}
		inst2, err := again.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if inst2.Key != inst.Key {
			t.Fatalf("nondeterministic key: %q vs %q", inst.Key, inst2.Key)
		}
		// The count is exact: price cheap instances against the unsampled
		// walk. An input empty by convention builds nothing, at any r.
		in := input(inst.M)
		est, err := inst.Estimate(in)
		if err != nil || est < 0 || est != inst.InsertionFloor() {
			t.Fatalf("Estimate = %d, %v; InsertionFloor = %d", est, err, inst.InsertionFloor())
		}
		if est > 0 && est <= 1<<10 && inst.R <= 2 && inst.N <= 3 {
			want := countInsertions(t, inst.Operator(), pc.InputViews(in), inst.R)
			if est != want {
				t.Fatalf("Estimate %d != reference %d for %s", est, want, data)
			}
		}
	})
}
