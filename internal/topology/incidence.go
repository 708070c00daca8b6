package topology

import "slices"

// Incidence access to the interned entry table. The homology engine's
// coreduction pass walks face/coface incidences of every stored simplex,
// and pc's record codec dumps the entries past a mark as vertex-id rows;
// these accessors expose the entry table directly (dense int32 entry
// indices, no Simplex materialization, no string keys) so both run at
// intern-table speed. Face incidences come from one face table per
// complex, probed once per face on the first read that needs it and
// shared by FacetCount, Facets, the coreduction and pc's closure check.
// Entry indices are stable: entries are append-only
// (only Truncate removes any), so an index obtained here stays valid as
// long as the complex is not truncated below it.

// EntryCount returns the number of stored simplexes. Entry indices run
// 0..EntryCount()-1 in insertion order, mixing dimensions.
func (c *Complex) EntryCount() int { return len(c.ends) }

// EntryDim returns the dimension of entry ei (0 for a vertex).
func (c *Complex) EntryDim(ei int32) int { return len(c.entryIDs(ei)) - 1 }

// EntrySimplex materializes entry ei as a Simplex (vertices in ascending
// process-id order, the complex's canonical order).
func (c *Complex) EntrySimplex(ei int32) Simplex { return c.simplexAt(ei) }

// VertexCount returns the number of interned vertices. Vertex ids run
// 0..VertexCount()-1 in first-seen order, and every interned vertex is a
// 0-simplex of the complex.
func (c *Complex) VertexCount() int { return len(c.byID) }

// VertexAt returns the vertex with intern id id.
func (c *Complex) VertexAt(id int32) Vertex { return c.byID[id] }

// AppendEntryIDs appends the intern ids of entry ei's vertices, in
// ascending process-id order, to buf and returns the extended slice.
// Together with VertexAt this dumps the complex as a vertex table plus
// id rows without materializing a Simplex.
func (c *Complex) AppendEntryIDs(buf []int32, ei int32) []int32 {
	return append(buf, c.entryIDs(ei)...)
}

// EntryFaces returns the entry indices of the codimension-1 faces of
// entry ei, a view into the face table that callers must not modify.
// Faces come in vertex-drop order: index i is the face omitting the i-th
// vertex of the entry's ascending-process-id sequence, so position i
// carries the orientation sign (-1)^i — the same convention the signed
// boundary builders use. A vertex entry has none. Every face of a stored
// simplex is itself stored (the complex is closed under containment), so
// the indices are valid; only a load through AddClosedIDs of a set that
// was not face-closed leaves a face missing, and its index is then -1.
//
// The first read after an insertion fills the table for the entries
// inserted since (see faceTable), under a lock; a read that finds the
// table filled takes no lock. Concurrent EntryFaces calls — and
// concurrent readers generally — are safe, matching the homology
// engine's access pattern.
func (c *Complex) EntryFaces(ei int32) []int32 {
	faces := c.faceTable()
	lo, hi := c.entryStart(int(ei)), int(c.ends[ei])
	if hi-lo <= 1 {
		return nil
	}
	return faces[lo:hi:hi]
}

// faceTable returns the face table, parallel to the id arena, filling it
// first if an entry was inserted since the last fill.
func (c *Complex) faceTable() []int32 {
	if int(c.faceUpTo.Load()) != len(c.ends) {
		c.fillFaces()
	}
	return c.faces
}

// fillFaces probes the faces of every entry from faceFrom on, so an
// entry is probed once unless a face of it was missing: faceFrom stops at
// the first such entry, and the next fill, after an insertion, probes
// again from there, so a -1 never outlives the face's insertion.
func (c *Complex) fillFaces() {
	c.faceMu.Lock()
	defer c.faceMu.Unlock()
	n := len(c.ends)
	if int(c.faceUpTo.Load()) == n {
		return // another reader filled it
	}
	keep := c.entryStart(c.faceFrom)
	c.faces = slices.Grow(c.faces[:keep], len(c.ids)-keep)[:len(c.ids)]
	face := make([]int32, max(c.dim, 0))
	from := n
	for ei := c.faceFrom; ei < n; ei++ {
		lo := c.entryStart(ei)
		ids := c.entryIDs(int32(ei))
		if len(ids) == 1 {
			c.faces[lo] = -1
			continue
		}
		// The face omitting ids[i] is the one omitting ids[i-1] with
		// ids[i-1] written back at position i-1.
		f := face[:len(ids)-1]
		copy(f, ids[1:])
		for i := range ids {
			if i > 0 {
				f[i-1] = ids[i-1]
			}
			fi := c.find(f, hashIDs(f))
			c.faces[lo+i] = fi
			if fi < 0 && from == n {
				from = ei
			}
		}
	}
	c.faceFrom = from
	c.faceUpTo.Store(int32(n))
}

// Id-level insertion. A builder that meets the same vertices many times
// (a round complex's every vertex lies in thousands of facets) interns
// each once through Intern and then inserts simplexes as id sequences,
// so no label is hashed per simplex. Record replay bulk-loads id rows
// through AddClosedIDs and undoes a rejected record with Truncate.

// Intern returns v's id, assigning the next one if v is new, and reports
// whether it was new. A new vertex is not yet a 0-simplex: the caller
// must insert a simplex holding it (AddIDs or AddClosedIDs) before the
// complex is read, which keeps every interned vertex a 0-simplex.
func (c *Complex) Intern(v Vertex) (id int32, added bool) {
	n := len(c.byID)
	id = c.intern(v)
	return id, len(c.byID) != n
}

// AddIDs inserts the simplex with the given vertex ids, and all of its
// faces, through the same closure walk as Add. The ids must be interned
// in c and ordered by ascending process id, one per process; AddIDs does
// not check either.
func (c *Complex) AddIDs(ids []int32) { c.addClosure(ids) }

// AddNewFaces inserts, in the order AddIDs would, the faces of the
// simplex with the given vertex ids that hold every position in need
// (bit i stands for ids[i]), the simplex itself first, without looking
// any face up; with need 0, where every face is new, it inserts them as
// AddIDs does. The precondition, which AddNewFaces does not check, is
// that these faces are exactly the ones absent from c. The ids must be
// interned in c and ordered by ascending process id, one per process.
//
// A pseudosphere's facets meet the precondition when they are inserted in
// mixed-radix order into the complex of the facets before them: a face
// lies first in the facet that takes option 0 wherever the face has no
// vertex, so the faces facet d adds are those holding every position
// whose option is not option 0. A simplex with more ids than the bitmask
// walk takes goes through AddIDs, which gives the same entries.
func (c *Complex) AddNewFaces(ids []int32, need uint32) {
	if n := len(ids); n == 0 || n > maskWalkLimit {
		c.addClosure(ids)
		return
	}
	c.walkFaces(ids, need)
}

// Reserve sizes the complex once for a build that ends holding entries
// simplexes of ids vertex ids in all: the id arena and the end offsets
// get room for them, and the index the size insertion would have doubled
// it to, so inserting up to that many allocates nothing. It changes no
// entry, id or observable order.
func (c *Complex) Reserve(entries, ids int) {
	if n := ids - len(c.ids); n > 0 {
		c.ids = slices.Grow(c.ids, n)
	}
	if n := entries - len(c.ends); n > 0 {
		c.ends = slices.Grow(c.ends, n)
	}
	slots := minIndexSlots
	for slots < 2*entries {
		slots *= 2
	}
	if slots > len(c.index) {
		c.resizeIndex(slots)
	}
}

// AddClosedIDs inserts the id sequence alone, without its faces, and
// reports whether it was absent: the bulk-load path for a face-closed set.
// The caller must load every face too, with ids interned in c and ordered
// by ascending process id.
func (c *Complex) AddClosedIDs(ids []int32) bool {
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return false
	}
	c.insert(ids, h)
	return true
}

// Truncate drops every vertex with id >= verts and every entry with index
// >= entries, returning the complex to the state it had when
// VertexCount() == verts and EntryCount() == entries, provided it has
// only grown since. Record replay uses it to undo a record that fails
// validation after it was applied.
func (c *Complex) Truncate(verts, entries int) {
	if verts >= len(c.byID) && entries >= len(c.ends) {
		return
	}
	for _, v := range c.byID[verts:] {
		delete(c.verts, v)
	}
	c.byID = c.byID[:verts]
	for ei := entries; ei < len(c.ends); ei++ {
		c.counts[len(c.entryIDs(int32(ei)))-1]--
	}
	if entries == 0 {
		c.ids = c.ids[:0]
	} else {
		c.ids = c.ids[:c.ends[entries-1]]
	}
	c.ends = c.ends[:entries]
	// Keep the table below the first entry that needs a probe again: one
	// with a missing face, or one whose face was among the dropped.
	from := min(c.faceFrom, entries)
	for ei := 0; ei < from; ei++ {
		lo, hi := c.entryStart(ei), c.ends[ei]
		if slices.ContainsFunc(c.faces[lo:hi], func(fi int32) bool { return int(fi) >= entries }) {
			from = ei
		}
	}
	c.faces = c.faces[:c.entryStart(from)]
	c.faceFrom = from
	c.faceUpTo.Store(int32(from))
	c.dim = -1
	for d, n := range c.counts {
		if n > 0 {
			c.dim = d
		}
	}
	clear(c.index)
	for ei := range c.ends {
		c.place(hashIDs(c.entryIDs(int32(ei))), int32(ei))
	}
	c.hash.Store(nil)
}
