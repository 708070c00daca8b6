package pc_test

import (
	"context"
	"math/rand"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/views"
)

// deltaFixtures are real round complexes: one and two rounds, so labels
// carry nested views.
func deltaFixtures(t *testing.T) map[string]*pc.Result {
	t.Helper()
	async, err := roundop.Build(context.Background(), asyncmodel.Params{N: 3, F: 3}.Operator(), testutil.Labeled(3, "v"), 1, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := roundop.Build(context.Background(), iis.Operator(), testutil.Labeled(2, "v"), 2, roundop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*pc.Result{"A^1 n=3 f=3": async, "IIS n=2 r=2": twice, "empty": pc.NewResult()}
}

// TestDeltaRoundTrip: the record of a whole result, cut at the empty
// mark and applied to a fresh result, rebuilds it vertex id for vertex id
// and entry for entry (so the same CanonicalHash), with a view per
// vertex that re-encodes as its label.
func TestDeltaRoundTrip(t *testing.T) {
	for name, res := range deltaFixtures(t) {
		rec := pc.AppendRecord(nil, []int{0, 2}, res, pc.Mark{})
		got := pc.NewResult()
		done, err := got.ApplyRecord(rec, 3)
		if err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if len(done) != 2 || done[0] != 0 || done[1] != 2 {
			t.Fatalf("%s: done = %v, want [0 2]", name, done)
		}
		if got.Mark() != res.Mark() {
			t.Fatalf("%s: applied %+v, encoded %+v", name, got.Mark(), res.Mark())
		}
		for id := int32(0); id < int32(res.Complex.VertexCount()); id++ {
			if g, w := got.Complex.VertexAt(id), res.Complex.VertexAt(id); g != w {
				t.Fatalf("%s: vertex %d = %v, encoded %v", name, id, g, w)
			}
		}
		for ei := int32(0); ei < int32(res.Complex.EntryCount()); ei++ {
			if g, w := got.Complex.EntrySimplex(ei), res.Complex.EntrySimplex(ei); !g.Equal(w) {
				t.Fatalf("%s: entry %d = %v, encoded %v", name, ei, g, w)
			}
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
		{"edge without its vertices", good, [][]int32{{0, 1}}},
		{"edge without one vertex", good, [][]int32{{0}, {0, 1}}},
	} {
		if res, err := pc.DecodeDelta(tc.verts, tc.simps); err == nil || res != nil {
			t.Fatalf("%s: DecodeDelta = (%v, %v), want an error and no result", tc.name, res, err)
		}
	}
}

// TestDecodeDeltaRejectsNonCanonicalLabel: a face-closed, chromatic delta
// whose labels all parse is still refused when one label spells a local
// state in a non-canonical way. Admitting it would give a merged complex
// a second vertex for a state it already has.
func TestDecodeDeltaRejectsNonCanonicalLabel(t *testing.T) {
	canonical := "0[0:(0=a);1:(1=b)]"
	for _, label := range []string{canonical, "0[1:(1=b);0:(0=a)]"} {
		verts := []pc.DeltaVert{{P: 0, L: label}, {P: 1, L: "1[0:(0=a);1:(1=b)]"}}
		res, err := pc.DecodeDelta(verts, [][]int32{{0}, {1}, {0, 1}})
		if ok := label == canonical; (err == nil) != ok || (res != nil) != ok {
			t.Fatalf("label %q: DecodeDelta = (%v, %v), want accepted %v", label, res, err, ok)
		}
	}
}
