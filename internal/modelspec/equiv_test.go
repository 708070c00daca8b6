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
	"testing"

	"pseudosphere/internal/iis"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

func buildHash(t *testing.T, inst *modelspec.Instance) string {
	t.Helper()
	res, err := inst.Build(context.Background(), input(inst.M), 2)
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

// countInsertions is the unsampled reference for EstimateFacets: walk
// every facet of every branch recursively, counting the insertions the
// real construction performs.
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

// TestEstimateExactForCompiledSpecs checks the admission seam on every
// spec-compiled operator shape: EstimateFacets must equal the unsampled
// reference, and the arithmetic InsertionFloor must never exceed it (for
// graphs adversaries it is exact, which is what makes it a safe
// pre-walk budget gate).
func TestEstimateExactForCompiledSpecs(t *testing.T) {
	for name, doc := range map[string]string{
		"crash-total": `{"processes": 3, "rounds": 2, "adversary": {"kind": "crash", "per_round": 1, "total": 2}}`,
		"crash":       `{"processes": 3, "rounds": 2, "adversary": {"kind": "crash", "per_round": 1}}`,
		"graphs": `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
			"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}, {"edges": [[0,1],[1,0]]}]}}`,
		"graphs-scheduled": `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
			"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}], "schedule": [[0,1],[1]]}}`,
	} {
		t.Run(name, func(t *testing.T) {
			inst := mustCompile(t, doc)
			in := input(inst.M)
			want := countInsertions(t, inst.Operator(), pc.InputViews(in), inst.R)
			got, err := inst.Estimate(in)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Estimate = %d, reference insertion count = %d", got, want)
			}
			if floor := inst.InsertionFloor(); floor > got {
				t.Fatalf("InsertionFloor %d exceeds exact estimate %d", floor, got)
			} else if inst.InsertionFloor() > 0 && floor != got {
				t.Fatalf("graphs floor %d should be exact, estimate %d", floor, got)
			}
		})
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
	fr, err := free.Build(context.Background(), input(free.M), 2)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pinned.Build(context.Background(), input(pinned.M), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ff, pf := len(fr.Complex.Facets()), len(pr.Complex.Facets()); pf >= ff {
		t.Fatalf("pinned schedule has %d facets, free adversary %d", pf, ff)
	}
}
