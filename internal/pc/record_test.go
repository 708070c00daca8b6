package pc_test

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/testutil"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// encodeRecord writes a record field by field in the layout record.go
// documents, so tests can state records no result produces.
func encodeRecord(done []int, base pc.Mark, verts []topology.Vertex, rows [][]int32) []byte {
	var b []byte
	u := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	u(len(done))
	for _, s := range done {
		u(s)
	}
	u(base.Verts)
	u(base.Entries)
	u(len(verts))
	for _, v := range verts {
		u(v.P)
		u(len(v.Label))
		b = append(b, v.Label...)
	}
	u(len(rows))
	for _, row := range rows {
		u(len(row))
		for _, id := range row {
			u(int(id))
		}
	}
	return b
}

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
			if g, w := got.Complex.EntrySimplex(ei), res.Complex.EntrySimplex(ei); !slices.Equal(g, w) {
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

// TestRecordChain: records cut from one growing result at successive
// marks replay, in order, into a copy of it, record for record; applied
// out of order, a record is refused and changes nothing.
func TestRecordChain(t *testing.T) {
	plan, err := roundop.PlanShards(asyncmodel.Params{N: 3, F: 3}.Operator(), testutil.Labeled(3, "v"), 1)
	if err != nil {
		t.Fatal(err)
	}
	writer := pc.NewResult()
	var recs [][]byte
	var marks []pc.Mark
	mark := pc.Mark{}
	for s := 0; s < plan.NumShards(); s++ {
		if err := plan.RunShard(writer, s); err != nil {
			t.Fatal(err)
		}
		if s%5 == 4 || s == plan.NumShards()-1 {
			recs = append(recs, pc.AppendRecord(nil, []int{s}, writer, mark))
			mark = writer.Mark()
			marks = append(marks, mark)
		}
	}
	reader := pc.NewResult()
	for i, rec := range recs {
		if i+1 < len(recs) {
			before := reader.Mark()
			if _, err := reader.ApplyRecord(recs[i+1], plan.NumShards()); err == nil || reader.Mark() != before {
				t.Fatalf("record %d applied ahead of record %d: err %v", i+1, i, err)
			}
		}
		if _, err := reader.ApplyRecord(rec, plan.NumShards()); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if reader.Mark() != marks[i] {
			t.Fatalf("after record %d the reader holds %+v, the writer held %+v", i, reader.Mark(), marks[i])
		}
	}
	if reader.Complex.CanonicalHash() != writer.Complex.CanonicalHash() || len(reader.Views) != len(writer.Views) {
		t.Fatal("the replayed chain differs from the writer's result")
	}
}

// TestApplyRecordRejects: each defect fails the record with an error and
// leaves the result exactly as it was, so a valid record still applies
// after it.
func TestApplyRecordRejects(t *testing.T) {
	a, b := views.Initial(0, "a"), views.Initial(1, "b")
	vc := topology.Vertex{P: 2, Label: views.Initial(2, "c").Encode()}
	prefix := func() *pc.Result {
		r := pc.NewResult()
		r.AddFacet([]*views.View{a, b}) // ids 0 (a) and 1 (b), three entries
		return r
	}
	base := pc.Mark{Verts: 2, Entries: 3}
	cone := [][]int32{{2}, {0, 2}, {1, 2}, {0, 1, 2}}
	valid := encodeRecord([]int{1}, base, []topology.Vertex{vc}, cone)

	cases := []struct {
		name string
		rec  []byte
	}{
		{"id past the vertex table", encodeRecord([]int{1}, base, []topology.Vertex{vc}, [][]int32{{2}, {0, 3}})},
		{"row out of process order", encodeRecord([]int{1}, base, []topology.Vertex{vc}, [][]int32{{2}, {2, 0}})},
		{"non-chromatic row", encodeRecord([]int{1}, base,
			[]topology.Vertex{{P: 1, Label: views.Initial(1, "d").Encode()}}, [][]int32{{2}, {1, 2}})},
		{"duplicate entry in the record", encodeRecord([]int{1}, base, []topology.Vertex{vc}, [][]int32{{2}, {2}})},
		{"entry already in the prefix", encodeRecord([]int{1}, base, nil, [][]int32{{0, 1}})},
		{"missing face", encodeRecord([]int{1}, base, []topology.Vertex{vc}, [][]int32{{2}, {0, 1, 2}})},
		{"vertex counts that do not extend the prefix", encodeRecord([]int{1}, pc.Mark{Verts: 1, Entries: 3}, []topology.Vertex{vc}, cone)},
		{"entry counts that do not extend the prefix", encodeRecord([]int{1}, pc.Mark{Verts: 2, Entries: 2}, []topology.Vertex{vc}, cone)},
		{"non-canonical label", encodeRecord([]int{1}, base,
			[]topology.Vertex{{P: 2, Label: "2[2:(2=c);0:(0=a)]"}}, [][]int32{{2}})},
		{"undecodable label", encodeRecord([]int{1}, base, []topology.Vertex{{P: 2, Label: "not a view"}}, [][]int32{{2}})},
		{"label of another process", encodeRecord([]int{1}, base,
			[]topology.Vertex{{P: 2, Label: views.Initial(1, "c").Encode()}}, [][]int32{{2}})},
		{"vertex already present", encodeRecord([]int{1}, base,
			[]topology.Vertex{{P: 0, Label: a.Encode()}}, [][]int32{{2}})},
		{"vertex without its 0-simplex", encodeRecord([]int{1}, base, []topology.Vertex{vc}, nil)},
		{"empty row", encodeRecord([]int{1}, base, []topology.Vertex{vc}, append([][]int32{{}}, cone...))},
		{"done past the shard count", encodeRecord([]int{3}, base, []topology.Vertex{vc}, cone)},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"oversized count", []byte{0x80, 0x80, 0x04}},
	}
	for n := 0; n < len(valid); n++ {
		cases = append(cases, struct {
			name string
			rec  []byte
		}{"truncated", valid[:n]})
	}
	for _, tc := range cases {
		r := prefix()
		hash, nviews := r.Complex.CanonicalHash(), len(r.Views)
		if done, err := r.ApplyRecord(tc.rec, 3); err == nil {
			t.Fatalf("%s (%d bytes): applied, done %v", tc.name, len(tc.rec), done)
		}
		if r.Mark() != base || r.Complex.CanonicalHash() != hash || len(r.Views) != nviews {
			t.Fatalf("%s: the refused record changed the result", tc.name)
		}
		if _, err := r.ApplyRecord(valid, 3); err != nil {
			t.Fatalf("%s: the valid record no longer applies: %v", tc.name, err)
		}
		if !r.Complex.Has(testutil.MustSimplex(topology.Vertex{P: 0, Label: a.Encode()}, topology.Vertex{P: 1, Label: b.Encode()}, vc)) {
			t.Fatalf("%s: the valid record did not add its triangle", tc.name)
		}
	}
}
