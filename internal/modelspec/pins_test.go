package modelspec_test

import (
	"context"
	"slices"
	"testing"

	"pseudosphere/internal/modelspec"
)

// TestGoldenRoundComplexes pins facet counts, f-vectors and canonical
// hashes of round complexes over the service's input labels (process i
// holds 'a'+i). A change to how views are built or encoded that moves a
// single label moves the hash, and stored responses, checkpoint records
// and shard plans stay valid only while these pass. The cases cover
// every operator: semisync (whose labels carry microround annotations),
// sync, async at two rounds, IIS and a graphs adversary.
func TestGoldenRoundComplexes(t *testing.T) {
	const twoGraphs = `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}]}}`
	for _, tc := range []struct {
		query, spec string
		facets      int
		fvec        []int
		hash        string
	}{
		{query: "model=semisync&n=3&k=1&c1=1&c2=2&d=2&r=2", facets: 1091, fvec: []int{712, 1224, 116, 1},
			hash: "123b584f4c72348857a6ee792d31eff2d92c5c8587fa669a40d5cf09897c5ccb"},
		{query: "model=semisync&n=4&k=1&c1=1&c2=2&d=2&r=2", facets: 8651, fvec: []int{3375, 11260, 9240, 305, 1},
			hash: "783af344865789b28292ed1daaf9a50a9cfcc2cc0e14685c5d3c13b8fbadd019"},
		{query: "model=sync&n=4&k=1&r=2", facets: 2221, fvec: []int{775, 2920, 2520, 155, 1},
			hash: "9b9e61b2385e7ab5f3f4ccd92f2007bdd5e399d5b2a8410c2f4a0b934c384e6a"},
		{query: "model=async&n=2&f=1&r=2", facets: 729, fvec: []int{135, 675, 729},
			hash: "f614427909fe74f159a4513f7cd587c8ef91ca460134cea449d596925a09bf50"},
		{query: "model=async&n=3&f=2&r=1", facets: 2401, fvec: []int{28, 294, 1372, 2401},
			hash: "d2d26048f23713fd8ecf2e61ded795f7a017fad76a18a440fada56b9d2c38722"},
		{query: "model=iis&n=3&r=1", facets: 75, fvec: []int{32, 132, 176, 75},
			hash: "d76a6f01af48429220f167325cba895639fbc3fae3ee8e437c292525899705c2"},
		{spec: twoGraphs, facets: 4, fvec: []int{12, 12, 4},
			hash: "de1ce0c858b4270ad1c5ec902f0ab8e65caa5f612f9e2b7ac0f487c5fb84ab44"},
	} {
		var inst *modelspec.Instance
		if tc.spec != "" {
			inst = mustCompile(t, tc.spec)
		} else {
			inst = mustQuery(t, tc.query)
		}
		res, err := inst.Build(context.Background(), input(inst.M), 1)
		if err != nil {
			t.Fatalf("%s: %v", inst.Key, err)
		}
		c := res.Complex
		if f, fv, h := c.FacetCount(), c.FVector(), c.CanonicalHash(); f != tc.facets || !slices.Equal(fv, tc.fvec) || h != tc.hash {
			t.Errorf("%s: %d facets, f-vector %v, hash %s; want %d, %v, %s", inst.Key, f, fv, h, tc.facets, tc.fvec, tc.hash)
		}
	}
}
