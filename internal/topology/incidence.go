package topology

// Incidence access to the interned entry table. The homology engine's
// coreduction pass walks face/coface incidences of every stored simplex,
// and pc's record codec dumps the entries past a mark as vertex-id rows;
// these accessors expose the entry table directly (dense int32 entry
// indices, no Simplex materialization, no string keys) so both run at
// intern-table speed. Entry indices are stable: entries are append-only
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

// EntryFaces appends the entry indices of the codimension-1 faces of
// entry ei to buf and returns the extended slice. Faces are produced in
// vertex-drop order: the i-th appended index is the face omitting the
// i-th vertex of the entry's ascending-process-id sequence, so position i
// carries the orientation sign (-1)^i — the same convention the signed
// boundary builders use. A vertex entry appends nothing. Every face of a
// stored simplex is itself stored (the complex is closed under
// containment), so the appended indices are valid; only a load through
// AddClosed of a set that was not face-closed leaves a face missing, and
// its index is then -1.
//
// The lookup is read-only (index probe, never insert) and uses no complex
// scratch state, so concurrent EntryFaces calls — and concurrent readers
// generally — are safe, matching the homology engine's access pattern.
func (c *Complex) EntryFaces(ei int32, buf []int32) []int32 {
	ids := c.entryIDs(ei)
	n := len(ids)
	if n <= 1 {
		return buf
	}
	var faceArr [maskWalkLimit]int32
	var face []int32
	if n-1 <= len(faceArr) {
		face = faceArr[:n-1]
	} else {
		face = make([]int32, n-1)
	}
	for i := 0; i < n; i++ {
		copy(face, ids[:i])
		copy(face[i:], ids[i+1:])
		buf = append(buf, c.find(face, hashIDs(face)))
	}
	return buf
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

// AddClosedIDs inserts the id sequence alone, without its faces, and
// reports whether it was absent. It is the id-level AddClosed: the caller
// must load a face-closed set, with ids interned in c and ordered by
// ascending process id.
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
