package pc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// The record codec: the one serialized form of a result's growth, shared
// by job checkpoint logs and distributed-build completion frames.
//
// A record is cut from a result at a mark, the result's vertex and entry
// counts at some earlier point, and holds what the result gained since:
//
//	record = done mark vertices entries
//	done   = n shard...            the shards the record completes
//	mark   = verts entries         the counts the record extends
//	vertices = n (p len label)...  the new vertices, in id order
//	entries  = n (k id...)...      the new entries, in entry order, each
//	                               its k vertex ids by ascending process
//
// Every integer is an unsigned varint, and a label is its byte length
// then its bytes. Records chain: applying a writer's records in order,
// each to the result the previous ones built, rebuilds the writer's
// result id for id and entry for entry, because the counts each record
// extends must match the result it is applied to. A record cut from a
// fresh result extends the empty mark and stands alone.

// Mark is a result's extent at one point: how many vertices its complex
// had interned and how many simplexes (entries) it held.
type Mark struct{ Verts, Entries int }

// Mark returns r's current extent.
func (r *Result) Mark() Mark {
	return Mark{Verts: r.Complex.VertexCount(), Entries: r.Complex.EntryCount()}
}

// AppendRecord appends to dst the record of what r gained past m, done
// listing the shards it completes, and returns the extended slice. m must
// be a mark r has reached (Mark, earlier): every vertex id and entry
// index below it is then unchanged. It walks the complex's intern table
// and entries directly: no sort, no Simplex, no map lookup. r.Views is not
// read; ApplyRecord rebuilds views from the labels.
func AppendRecord(dst []byte, done []int, r *Result, m Mark) []byte {
	c := r.Complex
	dst = binary.AppendUvarint(dst, uint64(len(done)))
	for _, s := range done {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	dst = binary.AppendUvarint(dst, uint64(m.Verts))
	dst = binary.AppendUvarint(dst, uint64(m.Entries))
	dst = binary.AppendUvarint(dst, uint64(c.VertexCount()-m.Verts))
	for id := m.Verts; id < c.VertexCount(); id++ {
		v := c.VertexAt(int32(id))
		dst = binary.AppendUvarint(dst, uint64(v.P))
		dst = binary.AppendUvarint(dst, uint64(len(v.Label)))
		dst = append(dst, v.Label...)
	}
	dst = binary.AppendUvarint(dst, uint64(c.EntryCount()-m.Entries))
	row := make([]int32, 0, max(c.Dim()+1, 1))
	for ei := m.Entries; ei < c.EntryCount(); ei++ {
		row = c.AppendEntryIDs(row[:0], int32(ei))
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, id := range row {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// ApplyRecord decodes the record rec and applies it to r, returning its
// done list. It checks the record in full against r:
//   - every done index must lie below shards;
//   - the mark it extends must be r's current one;
//   - every label must be the canonical encoding of a view of its
//     process, and every vertex new to r;
//   - every id must name a vertex of r or of the record, and every row
//     must be chromatic, in ascending process order, and new to r;
//   - afterwards every new entry's codimension-1 faces, and every new
//     vertex's 0-simplex, must be present;
//   - no bytes may follow the record.
//
// r.Views gains the decoded view of every new vertex. On any failure r is
// left exactly as it was and an error returned, so a corrupt or
// adversarial record never leaves part of itself behind and r stays a
// face-closed complex with a view per vertex.
func (r *Result) ApplyRecord(rec []byte, shards int) ([]int, error) {
	d := recordReader{b: rec}
	done := make([]int, d.count())
	for i := range done {
		if done[i] = d.int(); done[i] >= shards && d.err == nil {
			return nil, fmt.Errorf("pc: record completes shard %d of %d", done[i], shards)
		}
	}
	base := Mark{Verts: d.int(), Entries: d.int()}
	if d.err != nil {
		return nil, d.err
	}
	if base != r.Mark() {
		return nil, fmt.Errorf("pc: record extends %d vertices and %d entries, the result holds %d and %d",
			base.Verts, base.Entries, r.Complex.VertexCount(), r.Complex.EntryCount())
	}
	nv := d.count()
	verts := make([]topology.Vertex, nv)
	vws := make([]*views.View, nv)
	for i := range verts {
		p := d.int()
		label := d.label()
		if d.err != nil {
			return nil, d.err
		}
		view, err := views.Decode(label)
		if err != nil || view.P != p {
			return nil, fmt.Errorf("pc: record vertex %d is not a canonical view of process %d", base.Verts+i, p)
		}
		verts[i], vws[i] = topology.Vertex{P: p, Label: label}, view
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := r.applyRows(&d, base, verts); err != nil {
		r.Complex.Truncate(base.Verts, base.Entries)
		return nil, err
	}
	for i, v := range verts {
		r.Views[v] = vws[i]
	}
	return done, nil
}

// applyRows interns the record's new vertices and inserts its rows,
// checking each, then checks that what it inserted is face-closed. The
// caller truncates r back to base when it fails.
func (r *Result) applyRows(d *recordReader, base Mark, verts []topology.Vertex) error {
	c := r.Complex
	for i, v := range verts {
		if _, added := c.Intern(v); !added {
			return fmt.Errorf("pc: record vertex %d repeats vertex %v", base.Verts+i, v)
		}
	}
	nids := base.Verts + len(verts)
	row := make([]int32, 0, 8)
	for n := d.count(); n > 0 && d.err == nil; n-- {
		k := d.count()
		if k == 0 && d.err == nil {
			return fmt.Errorf("pc: record holds an empty row")
		}
		row = row[:0]
		prev := -1
		for ; k > 0 && d.err == nil; k-- {
			id := d.int()
			if id >= nids {
				return fmt.Errorf("pc: record row names vertex %d of %d", id, nids)
			}
			p := c.VertexAt(int32(id)).P
			if p <= prev {
				return fmt.Errorf("pc: record row %v is not in ascending process order", row)
			}
			prev = p
			row = append(row, int32(id))
		}
		if d.err == nil && !c.AddClosedIDs(row) {
			return fmt.Errorf("pc: record row %v is already present", row)
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) > 0 {
		return fmt.Errorf("pc: %d bytes follow the record", len(d.b))
	}
	for ei := base.Entries; ei < c.EntryCount(); ei++ {
		if slices.Contains(c.EntryFaces(int32(ei)), -1) {
			return fmt.Errorf("pc: record is not face-closed: a face of %v is missing", c.EntrySimplex(int32(ei)))
		}
	}
	for _, v := range verts {
		if !c.Has(topology.Simplex{v}) {
			return fmt.Errorf("pc: record interns vertex %v without its 0-simplex", v)
		}
	}
	return nil
}

// recordReader decodes a record's varints front to back. The first
// malformed field sets err; every later read then returns zero.
type recordReader struct {
	b   []byte
	err error
}

// int reads one varint that must fit an int32: every count, id, process
// id and shard index in a record does.
func (d *recordReader) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > math.MaxInt32 {
		d.err = fmt.Errorf("pc: malformed record varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads the length of a list whose every element takes at least
// one more byte, so a corrupt count cannot ask for more than the record
// could hold.
func (d *recordReader) count() int {
	n := d.int()
	if n > len(d.b) {
		d.err = fmt.Errorf("pc: record list of %d elements in %d bytes", n, len(d.b))
		return 0
	}
	return n
}

// label reads one length-prefixed label.
func (d *recordReader) label() string {
	n := d.int()
	if n > len(d.b) {
		d.err = fmt.Errorf("pc: record label of %d bytes in %d", n, len(d.b))
	}
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
