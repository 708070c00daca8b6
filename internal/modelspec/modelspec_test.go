package modelspec_test

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"testing"

	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

func input(m int) topology.Simplex {
	vs := make(topology.Simplex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return vs
}

func mustQuery(t *testing.T, raw string) *modelspec.Instance {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := modelspec.FromQuery(q)
	if err != nil {
		t.Fatalf("FromQuery(%q): %v", raw, err)
	}
	return inst
}

func mustCompile(t *testing.T, doc string) *modelspec.Instance {
	t.Helper()
	spec, err := modelspec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	inst, err := spec.Compile()
	if err != nil {
		t.Fatalf("Compile(%s): %v", doc, err)
	}
	return inst
}

// TestPresetKeysPinned pins the canonical keys of the five presets —
// byte-identical to the keys the serving tier emitted before the
// registry existed, so every cached response, job id, and ring placement
// survives the refactor — and checks that a preset-form spec naming the
// same tuple produces the very same bytes.
func TestPresetKeysPinned(t *testing.T) {
	cases := []struct {
		query string
		spec  string
		key   string
	}{
		{
			"model=async&n=2&f=1&r=1",
			`{"name": "async", "params": {"n": 2, "f": 1, "r": 1}}`,
			"model=async|n=2|m=2|f=1|r=1",
		},
		{
			"model=sync&n=3&m=2&k=1&r=2",
			`{"name": "sync", "params": {"n": 3, "m": 2, "k": 1, "r": 2}}`,
			"model=sync|n=3|m=2|k=1|r=2",
		},
		{
			"model=semisync&n=2&k=1&c1=1&c2=2&d=2&r=1",
			`{"name": "semisync", "params": {"n": 2, "k": 1, "c1": 1, "c2": 2, "d": 2, "r": 1}}`,
			"model=semisync|n=2|m=2|k=1|c1=1|c2=2|d=2|r=1",
		},
		{
			"model=iis&n=2&r=2",
			`{"name": "iis", "params": {"n": 2, "r": 2}}`,
			"model=iis|n=2|m=2|r=2",
		},
		{
			"model=custom&n=2&k=1&r=2",
			`{"name": "custom", "params": {"n": 2, "k": 1, "r": 2}}`,
			"model=custom|n=2|m=2|k=1|r=2",
		},
	}
	for _, tc := range cases {
		if got := mustQuery(t, tc.query).Key; got != tc.key {
			t.Errorf("FromQuery(%q).Key = %q, want %q", tc.query, got, tc.key)
		}
		if got := mustCompile(t, tc.spec).Key; got != tc.key {
			t.Errorf("Compile(%s).Key = %q, want %q", tc.spec, got, tc.key)
		}
	}
}

// TestFromQueryDefaults pins the historical defaults: no parameters means
// async, n=2, m=n, f=1, one round.
func TestFromQueryDefaults(t *testing.T) {
	inst := mustQuery(t, "")
	if inst.Key != "model=async|n=2|m=2|f=1|r=1" {
		t.Fatalf("default key = %q", inst.Key)
	}
	if inst.Model != "async" || inst.N != 2 || inst.M != 2 || inst.R != 1 {
		t.Fatalf("default instance = %+v", inst)
	}
}

func TestFromQueryRejects(t *testing.T) {
	for _, raw := range []string{
		"model=quantum",
		"n=abc",
		"n=-1",
		"n=13",
		"n=2&m=3",
		"r=-1",
		"r=7",
		"model=async&f=9",          // f > n+1
		"model=semisync&c1=3&c2=2", // c1 > c2
	} {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		_, err = modelspec.FromQuery(q)
		if err == nil {
			t.Errorf("FromQuery(%q) accepted", raw)
			continue
		}
		var me *modelspec.Error
		if !errors.As(err, &me) {
			t.Errorf("FromQuery(%q): error %v is not *modelspec.Error", raw, err)
		}
	}
}

func TestNamesListsPresets(t *testing.T) {
	got := strings.Join(modelspec.Names(), ",")
	if got != "async,custom,iis,semisync,sync" {
		t.Fatalf("Names() = %q", got)
	}
}

// TestRegisterNeedsCount: admission prices every request with the
// model's count, so a model without one cannot register.
func TestRegisterNeedsCount(t *testing.T) {
	m := modelspec.Model{
		Name:     "sync-without-count",
		Validate: func(modelspec.Params) error { return nil },
		Operator: func(modelspec.Params) roundop.Operator { return nil },
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted a model without Count")
		}
	}()
	modelspec.Register(m)
}

// TestEstimateAllocatesLittle: pricing is a few arithmetic steps, so it
// allocates a bounded number of objects whatever the instance: at most
// 16 over the m-face of every preset with n <= MaxN (IIS n <= 6), k or
// f <= n+1 and r <= MaxRounds. The branch walk it replaced allocated
// 788,158 objects to parse and price async n=12 f=12 r=6.
func TestEstimateAllocatesLittle(t *testing.T) {
	for n := 0; n <= modelspec.MaxN; n++ {
		for r := 0; r <= modelspec.MaxRounds; r++ {
			var queries []string
			if n <= 6 {
				queries = append(queries, fmt.Sprintf("model=iis&n=%d&r=%d", n, r))
			}
			for b := 0; b <= n+1; b++ {
				queries = append(queries,
					fmt.Sprintf("model=async&n=%d&f=%d&r=%d", n, b, r),
					fmt.Sprintf("model=sync&n=%d&k=%d&r=%d", n, b, r),
					fmt.Sprintf("model=custom&n=%d&k=%d&r=%d", n, b, r),
					fmt.Sprintf("model=semisync&n=%d&k=%d&r=%d", n, b, r))
			}
			for _, q := range queries {
				inst := mustQuery(t, q)
				in := input(inst.M)
				if allocs := testing.AllocsPerRun(1, func() { inst.Estimate(in) }); allocs > 16 {
					t.Errorf("%s: Estimate allocates %.0f objects, want at most 16", q, allocs)
				}
			}
		}
	}
}

// TestParseRejects walks the malformed-spec space: every rejection must
// be a typed *modelspec.Error (the service's 400 class), never a panic
// and never acceptance.
func TestParseRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"empty":               ``,
		"not json":            `{"name"`,
		"trailing data":       `{"name": "iis"} {"name": "iis"}`,
		"unknown field":       `{"name": "iis", "extra": 1}`,
		"no dialect":          `{}`,
		"mixed dialects":      `{"name": "sync", "processes": 3, "adversary": {"kind": "crash"}}`,
		"preset rounds field": `{"name": "sync", "rounds": 2}`,
		"adversary params":    `{"processes": 2, "params": {"n": 1}, "adversary": {"kind": "crash"}}`,
		"unknown model":       `{"name": "quantum"}`,
		"unknown param":       `{"name": "sync", "params": {"q": 1}}`,
		"preset bad f":        `{"name": "async", "params": {"n": 2, "f": 9}}`,
		"preset m over n":     `{"name": "sync", "params": {"n": 2, "m": 3}}`,
		"zero processes":      `{"adversary": {"kind": "crash"}}`,
		"too many processes":  `{"processes": 14, "adversary": {"kind": "crash"}}`,
		"negative rounds":     `{"processes": 2, "rounds": -1, "adversary": {"kind": "crash"}}`,
		"too many rounds":     `{"processes": 2, "rounds": 7, "adversary": {"kind": "crash"}}`,
		"bad input_dim":       `{"processes": 2, "input_dim": 2, "adversary": {"kind": "crash"}}`,
		"no adversary kind":   `{"processes": 2, "adversary": {}}`,
		"unknown kind":        `{"processes": 2, "adversary": {"kind": "omission"}}`,
		"crash with graphs":   `{"processes": 2, "adversary": {"kind": "crash", "graphs": [{"edges": []}]}}`,
		"negative per_round":  `{"processes": 2, "adversary": {"kind": "crash", "per_round": -1}}`,
		"huge per_round":      `{"processes": 2, "adversary": {"kind": "crash", "per_round": 3}}`,
		"negative total":      `{"processes": 2, "adversary": {"kind": "crash", "per_round": 1, "total": -1}}`,
		"graphs with budget":  `{"processes": 2, "adversary": {"kind": "graphs", "per_round": 1, "graphs": [{"edges": []}]}}`,
		"no graphs":           `{"processes": 2, "adversary": {"kind": "graphs"}}`,
		"self-loop":           `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,0]]}]}}`,
		"edge out of range":   `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,2]]}]}}`,
		"duplicate edge":      `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1],[0,1]]}]}}`,
		"duplicate graph":     `{"processes": 3, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1],[1,2]]}, {"edges": [[1,2],[0,1]]}]}}`,
		"schedule too short":  `{"processes": 2, "rounds": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}], "schedule": [[0]]}}`,
		"schedule empty menu": `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}], "schedule": [[]]}}`,
		"schedule bad index":  `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}], "schedule": [[1]]}}`,
		"schedule dup index":  `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}], "schedule": [[0,0]]}}`,
	} {
		_, err := modelspec.Parse([]byte(doc))
		if err == nil {
			t.Errorf("%s: Parse accepted %s", name, doc)
			continue
		}
		var me *modelspec.Error
		if !errors.As(err, &me) {
			t.Errorf("%s: error %v is not *modelspec.Error", name, err)
		}
	}
}

// TestSpecKeyCanonicalization: edge listing order inside a graph and
// index order inside a schedule menu are spelling, not semantics — they
// canonicalize to one key. Graph list order stays semantic because the
// schedule addresses graphs by index.
func TestSpecKeyCanonicalization(t *testing.T) {
	a := mustCompile(t, `{"processes": 3, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0]]}], "schedule": [[0,1]]}}`)
	b := mustCompile(t, `{"processes": 3, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[2,0],[0,1],[1,2]]}, {"edges": [[1,0]]}], "schedule": [[1,0]]}}`)
	if a.Key != b.Key {
		t.Fatalf("equivalent specs keyed differently:\n%s\n%s", a.Key, b.Key)
	}
	c := mustCompile(t, `{"processes": 3, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[1,0]]}, {"edges": [[0,1],[1,2],[2,0]]}], "schedule": [[0,1]]}}`)
	if a.Key == c.Key {
		t.Fatal("reordered graph list (different schedule meaning) shares a key")
	}
	d := mustCompile(t, `{"processes": 3, "rounds": 1, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0]]}], "schedule": [[0,1]]}}`)
	if a.Key != d.Key {
		t.Fatalf("explicit rounds=1 changed the key:\n%s\n%s", a.Key, d.Key)
	}
}

// TestCompileHandBuilt: Compile validates on its own, so a hand-built
// (not Parsed) bad Spec errors instead of compiling garbage.
func TestCompileHandBuilt(t *testing.T) {
	bad := &modelspec.Spec{Processes: 2, Adversary: &modelspec.Adversary{Kind: "omission"}}
	if _, err := bad.Compile(); err == nil {
		t.Fatal("Compile accepted unknown adversary kind")
	}
	good := &modelspec.Spec{Name: "iis"}
	inst, err := good.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Key != "model=iis|n=2|m=2|r=1" {
		t.Fatalf("key = %q", inst.Key)
	}
}

// TestGraphsRejectsForeignParticipant: building a graphs instance over an
// input mentioning a process id outside the spec's process set must error
// cleanly, not index out of range.
func TestGraphsRejectsForeignParticipant(t *testing.T) {
	inst := mustCompile(t, `{"processes": 2, "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1]]}]}}`)
	foreign := topology.Simplex{{P: 7, Label: "a"}, {P: 8, Label: "b"}}
	if _, err := inst.Build(context.Background(), foreign, 1); err == nil {
		t.Fatal("Build accepted participants outside the process set")
	}
}

// TestSpecEchoShape: adversary-form instances echo only n, m, r — no
// preset fields leak into responses.
func TestSpecEchoShape(t *testing.T) {
	inst := mustCompile(t, `{"processes": 3, "input_dim": 1, "rounds": 2,
		"adversary": {"kind": "crash", "per_round": 1}}`)
	if inst.Model != modelspec.SpecModel {
		t.Fatalf("model = %q", inst.Model)
	}
	if inst.N != 2 || inst.M != 1 || inst.R != 2 {
		t.Fatalf("instance = %+v", inst)
	}
	want := modelspec.ParamsJSON{N: 2, M: 1, R: 2}
	if inst.Params != want {
		t.Fatalf("echo = %+v, want %+v", inst.Params, want)
	}
}
