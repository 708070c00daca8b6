package pc_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/views"
)

// deltaFixtures are real round complexes: one and two rounds, so labels
// carry nested views.
func deltaFixtures(t *testing.T) map[string]*pc.Result {
	t.Helper()
	async, err := asyncmodel.OneRound(testutil.Labeled(3, "v"), asyncmodel.Params{N: 3, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := iis.Rounds(testutil.Labeled(2, "v"), 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*pc.Result{"A^1 n=3 f=3": async, "IIS n=2 r=2": twice, "empty": pc.NewResult()}
}

// TestDeltaRoundTrip: EncodeDelta's output, through JSON and DecodeDelta,
// rebuilds the same complex (same CanonicalHash) with a view per vertex,
// and its rows follow the complex's insertion order.
func TestDeltaRoundTrip(t *testing.T) {
	for name, res := range deltaFixtures(t) {
		verts, simps := pc.EncodeDelta(res)
		if len(verts) != res.Complex.VertexCount() || len(simps) != res.Complex.Size() {
			t.Fatalf("%s: encoded %d verts, %d rows for %d vertices, %d simplexes",
				name, len(verts), len(simps), res.Complex.VertexCount(), res.Complex.Size())
		}
		for ei, row := range simps {
			s := res.Complex.EntrySimplex(int32(ei))
			for j, id := range row {
				if v := verts[id]; v.P != s[j].P || v.L != s[j].Label {
					t.Fatalf("%s: row %d vertex %d = %+v, entry has %v", name, ei, j, v, s[j])
				}
			}
		}
		raw, err := json.Marshal(struct {
			Verts []pc.DeltaVert `json:"verts"`
			Simps [][]int32      `json:"simps"`
		}{verts, simps})
		if err != nil {
			t.Fatal(err)
		}
		if len(verts) > 0 && !strings.HasPrefix(string(raw), `{"verts":[{"p":`) {
			t.Fatalf("%s: vertex table marshals as %.40s, want {p,l} objects", name, raw)
		}
		var back struct {
			Verts []pc.DeltaVert
			Simps [][]int32
		}
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := pc.DecodeDelta(back.Verts, back.Simps)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if g, w := got.Complex.CanonicalHash(), res.Complex.CanonicalHash(); g != w {
			t.Fatalf("%s: decoded hash %s, encoded %s", name, g, w)
		}
		if len(got.Views) != res.Complex.VertexCount() {
			t.Fatalf("%s: %d decoded views for %d vertices", name, len(got.Views), res.Complex.VertexCount())
		}
		for v, view := range got.Views {
			if view.P != v.P || view.Encode() != v.Label {
				t.Fatalf("%s: view for %v re-encodes as %q", name, v, view.Encode())
			}
		}
	}
}

// TestDecodeDeltaAnyOrder: the decoder's result depends neither on the
// vertex table's order nor on the row order, so a parent's sorted dump
// and an insertion-order dump decode alike.
func TestDecodeDeltaAnyOrder(t *testing.T) {
	res := deltaFixtures(t)["IIS n=2 r=2"]
	verts, simps := pc.EncodeDelta(res)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(len(verts))
	shuffled := make([]pc.DeltaVert, len(verts))
	for old, nu := range perm {
		shuffled[nu] = verts[old]
	}
	rows := make([][]int32, len(simps))
	for i, row := range simps {
		r := make([]int32, len(row))
		for j, id := range row {
			r[j] = int32(perm[id])
		}
		rng.Shuffle(len(r), func(a, b int) { r[a], r[b] = r[b], r[a] })
		rows[i] = r
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	got, err := pc.DecodeDelta(shuffled, rows)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Complex.CanonicalHash(), res.Complex.CanonicalHash(); g != w {
		t.Fatalf("shuffled delta decodes to %s, want %s", g, w)
	}
}

// TestDecodeDeltaRejects: each structural defect fails the whole delta
// with an error and no result.
func TestDecodeDeltaRejects(t *testing.T) {
	a := views.Initial(0, "a").Encode()
	b := views.Initial(1, "b").Encode()
	c := views.Initial(1, "c").Encode()
	good := []pc.DeltaVert{{P: 0, L: a}, {P: 1, L: b}}
	if _, err := pc.DecodeDelta(good, [][]int32{{0}, {1}, {0, 1}}); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		verts []pc.DeltaVert
		simps [][]int32
	}{
		{"undecodable label", []pc.DeltaVert{{P: 0, L: "not a view"}}, [][]int32{{0}}},
		{"label of another process", []pc.DeltaVert{{P: 1, L: a}}, [][]int32{{0}}},
		{"index past the table", good, [][]int32{{0}, {2}}},
		{"negative index", good, [][]int32{{-1}}},
		{"non-chromatic row", append(good, pc.DeltaVert{P: 1, L: c}), [][]int32{{1, 2}}},
	} {
		if res, err := pc.DecodeDelta(tc.verts, tc.simps); err == nil || res != nil {
			t.Fatalf("%s: DecodeDelta = (%v, %v), want an error and no result", tc.name, res, err)
		}
	}
}
