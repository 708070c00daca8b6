package modelspec_test

// Hash-for-hash equivalence pins: inline specs that express a preset's
// adversary in the spec dialect must build the byte-identical complex
// (same CanonicalHash) as the preset path. Sync and custom are crash
// budgets (custom is also pinned to literal parent-commit values); IIS one-round branches are its ordered partitions rendered as
// communication graphs; async's "hear n-f+1 including yourself" is the
// oblivious message adversary over all sufficiently-dense graphs.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"pseudosphere/internal/iis"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

func buildHash(t *testing.T, inst *modelspec.Instance) string {
	t.Helper()
	res, err := inst.Build(context.Background(), input(inst.M), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Complex.CanonicalHash()
}

func graphsSpec(t *testing.T, processes, rounds int, graphs [][][2]int) *modelspec.Instance {
	t.Helper()
	gs := make([]modelspec.Graph, len(graphs))
	for i, edges := range graphs {
		gs[i] = modelspec.Graph{Edges: edges}
	}
	doc, err := json.Marshal(modelspec.Spec{
		Processes: processes,
		Rounds:    &rounds,
		Adversary: &modelspec.Adversary{Kind: "graphs", Graphs: gs},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mustCompile(t, string(doc))
}

func TestSyncPresetEqualsCrashTotalSpec(t *testing.T) {
	preset := mustQuery(t, "model=sync&n=2&k=1&r=2")
	spec := mustCompile(t, `{"processes": 3, "rounds": 2,
		"adversary": {"kind": "crash", "per_round": 1, "total": 2}}`)
	if g, w := buildHash(t, spec), buildHash(t, preset); g != w {
		t.Fatalf("crash-total spec hash %s != sync preset hash %s", g, w)
	}
}

// TestCustomPresetEqualsCrashSpec pins the custom preset — and the crash
// spec adversary it shares an operator with — to facet counts, shard
// counts and hashes recorded before the preset compiled to syncmodel
// with f = r*k, so stored responses, shard plans and checkpoint records
// written then stay valid.
func TestCustomPresetEqualsCrashSpec(t *testing.T) {
	for _, tc := range []struct {
		query, spec    string
		facets, shards int
		hash           string
	}{
		{"model=custom&n=2&k=1&r=2", `{"processes": 3, "rounds": 2, "adversary": {"kind": "crash", "per_round": 1}}`,
			28, 13, "d9164c0cb9854b427e22f135b425db74567e7c01c62e7d39587223934e9ab88c"},
		{"model=custom&n=3&k=2&r=2", `{"processes": 4, "rounds": 2, "adversary": {"kind": "crash", "per_round": 2}}`,
			397, 129, "5c368f6a6dca7b4db68b534b0f52debad8edb91866a2dc7519f2f3de7ea87d9a"},
		{"model=custom&n=2&k=4&r=3", `{"processes": 3, "rounds": 3, "adversary": {"kind": "crash", "per_round": 3}}`,
			67, 25, "07c34e5befb3fe4ba7fb82c320b8f79f699947e553b37b9801629762fe603342"},
	} {
		for _, inst := range []*modelspec.Instance{mustQuery(t, tc.query), mustCompile(t, tc.spec)} {
			in := input(inst.M)
			res, err := inst.Build(context.Background(), in, 1)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := roundop.PlanShards(inst.Operator(), in, inst.R)
			if err != nil {
				t.Fatal(err)
			}
			if f, s, h := res.Complex.FacetCount(), plan.NumShards(), res.Complex.CanonicalHash(); f != tc.facets || s != tc.shards || h != tc.hash {
				t.Errorf("%s: %d facets, %d shards, hash %s; want %d, %d, %s", inst.Key, f, s, h, tc.facets, tc.shards, tc.hash)
			}
		}
	}
}

// TestHugePerRoundBudgetClamped: the presets' failure budget r*k must
// not wrap for huge k. No failure set is larger than the n+1 processes,
// so k = 2^62 builds the same complex as k = n+1 (which at n=2, r=4 has
// 121 facets for sync and custom and 481 for semisync, not the single
// failure-free facet a wrapped budget of 0 gives).
func TestHugePerRoundBudgetClamped(t *testing.T) {
	for _, model := range []string{"sync", "semisync", "custom"} {
		huge := mustQuery(t, "model="+model+"&n=2&k=4611686018427387904&r=4")
		small := mustQuery(t, "model="+model+"&n=2&k=3&r=4")
		if g, w := buildHash(t, huge), buildHash(t, small); g != w {
			t.Errorf("%s: k=2^62 hash %s != k=n+1 hash %s", model, g, w)
		}
	}
}

// iisGraphs renders each ordered partition of 0..n as the communication
// graph IIS induces: a process hears exactly its own block and all
// earlier blocks.
func iisGraphs(n int) [][][2]int {
	ids := make([]int, n+1)
	for i := range ids {
		ids[i] = i
	}
	var graphs [][][2]int
	for _, partition := range iis.OrderedPartitions(ids) {
		var edges [][2]int
		var seen []int
		for _, block := range partition {
			seen = append(seen, block...)
			for _, p := range block {
				for _, q := range seen {
					if q != p {
						edges = append(edges, [2]int{q, p})
					}
				}
			}
		}
		graphs = append(graphs, edges)
	}
	return graphs
}

func TestIISPresetEqualsGraphsSpec(t *testing.T) {
	graphs := iisGraphs(2)
	if len(graphs) != 13 {
		t.Fatalf("expected the 13 ordered partitions of 3 processes, got %d graphs", len(graphs))
	}
	for _, r := range []int{1, 2} {
		preset := mustQuery(t, fmt.Sprintf("model=iis&n=2&r=%d", r))
		spec := graphsSpec(t, 3, r, graphs)
		if g, w := buildHash(t, spec), buildHash(t, preset); g != w {
			t.Fatalf("r=%d: IIS-as-graphs hash %s != iis preset hash %s", r, g, w)
		}
	}
}

// asyncGraphs enumerates the async message adversary for n+1 processes
// and f failures as explicit graphs: independently for every process, an
// in-neighborhood of at least n-f other processes.
func asyncGraphs(n, f int) [][][2]int {
	procs := n + 1
	// Per-process menus of admissible in-neighbor sets.
	menus := make([][][]int, procs)
	for p := 0; p < procs; p++ {
		var others []int
		for q := 0; q < procs; q++ {
			if q != p {
				others = append(others, q)
			}
		}
		for mask := 0; mask < 1<<len(others); mask++ {
			var set []int
			for i, q := range others {
				if mask&(1<<i) != 0 {
					set = append(set, q)
				}
			}
			if len(set) >= n-f {
				menus[p] = append(menus[p], set)
			}
		}
	}
	graphs := [][][2]int{nil}
	for p := 0; p < procs; p++ {
		var next [][][2]int
		for _, g := range graphs {
			for _, set := range menus[p] {
				edges := append([][2]int(nil), g...)
				for _, q := range set {
					edges = append(edges, [2]int{q, p})
				}
				next = append(next, edges)
			}
		}
		graphs = next
	}
	return graphs
}

func TestAsyncPresetEqualsGraphsSpec(t *testing.T) {
	graphs := asyncGraphs(2, 1)
	if len(graphs) != 27 {
		t.Fatalf("expected 3^3 = 27 graphs for n=2 f=1, got %d", len(graphs))
	}
	for _, r := range []int{1, 2} {
		preset := mustQuery(t, fmt.Sprintf("model=async&n=2&f=1&r=%d", r))
		spec := graphsSpec(t, 3, r, graphs)
		if g, w := buildHash(t, spec), buildHash(t, preset); g != w {
			t.Fatalf("r=%d: async-as-graphs hash %s != async preset hash %s", r, g, w)
		}
	}
}

// countInsertions is the unsampled reference for the models' counts:
// walk every facet of every branch recursively, counting the insertions
// the real construction performs.
func countInsertions(t *testing.T, op roundop.Operator, cur []*views.View, r int) int64 {
	t.Helper()
	if r == 0 {
		return 1
	}
	branches, err := op.Branches(cur)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, b := range branches {
		if len(b.Opts) == 0 || pc.ProductSize(b.Opts) == 0 {
			continue
		}
		idx := make([]int, len(b.Opts))
		for {
			facet := make([]*views.View, len(b.Opts))
			for i, o := range b.Opts {
				facet[i] = o[idx[i]].View
			}
			total += countInsertions(t, b.Next, facet, r-1)
			if !pc.Advance(idx, b.Opts) {
				break
			}
		}
	}
	return total
}

// walkInsertions is the representative walk admission used to price
// with: the branch tree walked as the construction walks it, expanding
// one representative facet per branch, saturating. It is exact for the
// in-tree operators, whose continuation cost is constant across the
// facets of a branch, and cheap enough to run where countInsertions is
// not.
func walkInsertions(t *testing.T, op roundop.Operator, cur []*views.View, r int) int64 {
	t.Helper()
	if r == 0 {
		return 1
	}
	branches, err := op.Branches(cur)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, b := range branches {
		size := pc.ProductSize(b.Opts)
		if len(b.Opts) == 0 || size == 0 {
			continue
		}
		facet := make([]*views.View, len(b.Opts))
		for i, o := range b.Opts {
			facet[i] = o[0].View
		}
		term := pc.SatMul(size, walkInsertions(t, b.Next, facet, r-1))
		total = min(total, math.MaxInt64-term) + term
	}
	return total
}

// checkCount compares inst's arithmetic count over a dim-face with the
// representative walk, and with the unsampled count wherever that is at
// most 20,000; it checks that EmptyFor holds exactly where the count is
// 0, and that InsertionFloor is the count over the m-face. An input
// empty by convention builds nothing at any r, while a 0-round walk
// counts the input simplex itself, so the walks are compared at r = 0
// only where the count is nonzero. It returns the count.
func checkCount(t *testing.T, inst *modelspec.Instance, dim int) int64 {
	t.Helper()
	in := input(dim)
	got, err := inst.Estimate(in)
	if err != nil {
		t.Fatal(err)
	}
	if inst.EmptyFor(in) != (got == 0) {
		t.Fatalf("%s at dim %d: EmptyFor = %v with a count of %d", inst.Key, dim, inst.EmptyFor(in), got)
	}
	if dim == inst.M && inst.InsertionFloor() != got {
		t.Fatalf("%s: InsertionFloor = %d, Estimate = %d", inst.Key, inst.InsertionFloor(), got)
	}
	if got == 0 && inst.R == 0 {
		return got
	}
	cur := pc.InputViews(in)
	if want := walkInsertions(t, inst.Operator(), cur, inst.R); got != want {
		t.Fatalf("%s at dim %d: Estimate = %d, representative walk = %d", inst.Key, dim, got, want)
	}
	if got <= 20000 {
		if want := countInsertions(t, inst.Operator(), cur, inst.R); got != want {
			t.Fatalf("%s at dim %d: Estimate = %d, reference insertion count = %d", inst.Key, dim, got, want)
		}
	}
	return got
}

// TestEstimateExactForCompiledSpecs checks every model's arithmetic
// count, the one price admission reads, against the branch walks:
//
//   - the crash-failure grid: every sync, custom and semisync preset with
//     n <= 4, m <= n, k <= n+2, r <= 3 (semisync with c1=1, c2=2 and d in
//     {2, 3}), and every crash spec over the same n, m and r with
//     per_round <= n+1 and total absent or in 0..4, over the m-face;
//   - every async preset with n <= 4, m <= n, f <= n+1, r <= 3, and IIS
//     with n <= 3, r <= 3, at every input dimension up to n;
//   - the compiled graphs specs, at every input dimension;
//   - saturation: A^1 n=8 f=8 has one branch of 2^72 facets, a product
//     that wraps to exactly 0 in int64 arithmetic, and must price as
//     math.MaxInt64 rather than as empty.
func TestEstimateExactForCompiledSpecs(t *testing.T) {
	t.Run("crash", func(t *testing.T) { crashSpecGrid(t, false) })
	t.Run("crash-total", func(t *testing.T) { crashSpecGrid(t, true) })
	for name, queries := range map[string][]string{
		"sync":     {"model=sync"},
		"custom":   {"model=custom"},
		"semisync": {"model=semisync&d=2", "model=semisync&d=3"},
	} {
		t.Run(name, func(t *testing.T) {
			for n := 0; n <= 4; n++ {
				for m := 0; m <= n; m++ {
					for r := 0; r <= 3; r++ {
						for k := 0; k <= n+2; k++ {
							for _, q := range queries {
								checkCount(t, mustQuery(t, fmt.Sprintf("%s&n=%d&m=%d&k=%d&r=%d", q, n, m, k, r)), m)
							}
						}
					}
				}
			}
		})
	}
	t.Run("async", func(t *testing.T) {
		for n := 0; n <= 4; n++ {
			for m := 0; m <= n; m++ {
				for f := 0; f <= n+1; f++ {
					for r := 0; r <= 3; r++ {
						inst := mustQuery(t, fmt.Sprintf("model=async&n=%d&m=%d&f=%d&r=%d", n, m, f, r))
						for dim := 0; dim <= n; dim++ {
							if empty := checkCount(t, inst, dim) == 0; empty != (dim < n-f) {
								t.Fatalf("%s at dim %d: empty = %v, want it exactly below n-f", inst.Key, dim, empty)
							}
						}
					}
				}
			}
		}
	})
	t.Run("iis", func(t *testing.T) {
		for n := 0; n <= 3; n++ {
			for r := 0; r <= 3; r++ {
				inst := mustQuery(t, fmt.Sprintf("model=iis&n=%d&r=%d", n, r))
				for dim := 0; dim <= n; dim++ {
					checkCount(t, inst, dim)
				}
			}
		}
	})
	for name, doc := range map[string]string{
		"graphs": `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
			"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}, {"edges": [[0,1],[1,0]]}]}}`,
		"graphs-scheduled": `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
			"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}], "schedule": [[0,1],[1]]}}`,
	} {
		t.Run(name, func(t *testing.T) {
			inst := mustCompile(t, doc)
			for dim := 0; dim <= inst.N; dim++ {
				checkCount(t, inst, dim)
			}
		})
	}
	t.Run("saturates", func(t *testing.T) {
		if got := checkCount(t, mustQuery(t, "model=async&n=8&f=8&r=1"), 8); got != math.MaxInt64 {
			t.Fatalf("A^1 n=8 f=8 prices at %d, want %d", got, int64(math.MaxInt64))
		}
	})
}

// crashSpecGrid checks the count of every crash spec with n <= 4,
// m <= n, r <= 3 and per_round <= n+1, with total in 0..4 when withTotal
// and absent otherwise.
func crashSpecGrid(t *testing.T, withTotal bool) {
	t.Helper()
	totals := []string{""}
	if withTotal {
		totals = nil
		for f := 0; f <= 4; f++ {
			totals = append(totals, fmt.Sprintf(`, "total": %d`, f))
		}
	}
	for n := 0; n <= 4; n++ {
		for m := 0; m <= n; m++ {
			for r := 0; r <= 3; r++ {
				for k := 0; k <= n+1; k++ {
					for _, total := range totals {
						checkCount(t, mustCompile(t, fmt.Sprintf(`{"processes": %d, "input_dim": %d, "rounds": %d,
							"adversary": {"kind": "crash", "per_round": %d%s}}`, n+1, m, r, k, total)), m)
					}
				}
			}
		}
	}
}

// TestScheduleRestrictsRounds: a schedule is a round quantifier — pinning
// round 2 to one graph must shrink the complex relative to the
// unscheduled adversary.
func TestScheduleRestrictsRounds(t *testing.T) {
	free := mustCompile(t, `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}]}}`)
	pinned := mustCompile(t, `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}], "schedule": [[0,1],[0]]}}`)
	if free.Key == pinned.Key {
		t.Fatal("schedule did not change the canonical key")
	}
	fr, err := free.Build(context.Background(), input(free.M), 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pinned.Build(context.Background(), input(pinned.M), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ff, pf := len(fr.Complex.Facets()), len(pr.Complex.Facets()); pf >= ff {
		t.Fatalf("pinned schedule has %d facets, free adversary %d", pf, ff)
	}
}
