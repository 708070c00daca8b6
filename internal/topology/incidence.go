package topology

import (
	"math/bits"
	"slices"
)

// Incidence access to the interned entry table. The homology engine's
// coreduction pass walks face/coface incidences of every stored simplex,
// and pc's record codec dumps the entries past a mark as vertex-id rows;
// these accessors expose the entry table directly (dense int32 entry
// indices, no Simplex materialization, no string keys) so both run at
// intern-table speed. Face incidences come from one face table per
// complex, filled once per face on the first read that needs it and
// shared by FacetCount, Facets, the coreduction and pc's closure check.
// The entries of a fresh one-round pseudosphere build (roundop's
// pseudosphere path and roundop.Product) have their faces computed from
// positions and option digits (sphereFaces); every other entry's are
// probed in the index. Entry indices are stable: entries are append-only
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

// fillFaces fills the face slots of every entry from faceFrom on,
// computing those of a pseudosphere's entries (sphereFaces) and probing
// the rest, so an entry is filled once unless a face of it was missing:
// faceFrom stops at the first such entry, and the next fill, after an
// insertion, probes again from there, so a -1 never outlives the face's
// insertion.
func (c *Complex) fillFaces() {
	c.faceMu.Lock()
	defer c.faceMu.Unlock()
	n := len(c.ends)
	if int(c.faceUpTo.Load()) == n {
		return // another reader filled it
	}
	computed := 0 // the entries below are a pseudosphere's
	if c.sphere != nil {
		computed = c.sphere.end
	}
	if max(c.faceFrom, computed) < n {
		c.placeAll()
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
		if ei < computed {
			c.sphere.faces(c.faces[lo:lo+len(ids)], ids)
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

// sphereFaces locates the faces of a pseudosphere ψ(V₀..Vₖ₋₁) whose
// simplexes a complex holds as its first end entries, inserted through
// AddNewFaces in the order stated there. A simplex of it is a partial
// choice: positions μ with option digits g. Its first facet d takes g on
// μ and option 0 elsewhere, and it is ids(d) without the removed set R,
// the complement of μ, which lies in d's zero digits Φ. Its entry index
// is first(d) + rank(R):
//
//   - first(d) = Σ over positions i with dᵢ > 0 of (dᵢ+1)·2^{zᵢ}·Wᵢ,
//     minus 1 unless d = 0 (the empty choice), where zᵢ counts the zero
//     digits before i and Wᵢ = ∏_{j>i}(|Vⱼ|+1). It counts the partial
//     choices whose first facet precedes d: at the first position i where
//     that facet's digit is below dᵢ the choice takes no option or one of
//     0..dᵢ−1, before i it matches d (two ways at a zero digit), and after
//     i it is free.
//   - rank(R) is R's place in d's run: Σⱼ (1 + 2^{cⱼ₋₁} − 2^{cⱼ+1}), where
//     c₀ = |Φ| and c₁ > c₂ > … are the indices within Φ of R's members,
//     since AddNewFaces adds each removal from Φ's highest member down and
//     a member at index c heads a subtree of 2^c faces. The sum telescopes
//     to |R| + 2^{|Φ|} − R − lowbit(R), reading R as a bitmask over Φ's
//     indices, and is 0 for R = ∅. For d = 0 the empty face, rank |Φ|, is
//     skipped, so later ranks drop by one.
type sphereFaces struct {
	end    int
	at     []optionAt // by vertex id: the vertex's position and digit
	weight []int      // Wᵢ by position
}

// optionAt is a vertex's position and option digit in a pseudosphere.
type optionAt struct{ pos, digit int32 }

// faces writes into out the entry index of each codimension-1 face of
// ids, in vertex-drop order. It reads ids' own first facet once: a face
// that drops a vertex at option 0 keeps that facet and removes one more
// member of Φ, and one that drops a vertex at option g > 0 has the facet
// with option 0 there instead, which doubles every later term of first()
// and shifts R's later indices within Φ up by one.
func (s *sphereFaces) faces(out []int32, ids []int32) {
	var pre, term [32]int // by vertex: first()'s sum before its term, and the term
	var at [32]uint       // by vertex: zero digits before its position
	first, zeros, removed := 0, uint(0), uint(0)
	j := 0
	for i, w := range s.weight {
		if j < len(ids) && int(s.at[ids[j]].pos) == i {
			at[j] = zeros
			if d := int(s.at[ids[j]].digit); d > 0 {
				pre[j], term[j] = first, (d+1)<<zeros*w
				first += term[j]
			} else {
				zeros++
			}
			j++
			continue
		}
		removed |= 1 << zeros
		zeros++
	}
	for j := range ids {
		bit := uint(1) << at[j]
		if term[j] == 0 {
			out[j] = sphereIndex(first, zeros, removed|bit)
			continue
		}
		later := removed &^ (bit - 1)
		out[j] = sphereIndex(pre[j]+2*(first-pre[j]-term[j]), zeros+1, removed^later|later<<1|bit)
	}
}

// sphereIndex returns the entry index of a pseudosphere's simplex from
// the sum of first(d)'s terms, |Φ| and R as a bitmask over Φ's indices
// (see sphereFaces).
func sphereIndex(first int, zeros, removed uint) int32 {
	rank := 0
	if removed != 0 {
		rank = bits.OnesCount(removed) + 1<<zeros - int(removed) - int(removed&-removed)
	}
	if first > 0 || rank > int(zeros) {
		rank-- // the empty choice before d, or the empty face in d = 0's run
	}
	return int32(first + rank)
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

// AddNewFaces appends the faces of the simplex with the given vertex ids
// that hold every position in need (bit i stands for ids[i]), the
// simplex itself first, without looking any face up or placing it in the
// index. The precondition, which AddNewFaces does not check, is that
// these faces are exactly the ones absent from c. The ids, at most 32,
// must be interned in c and ordered by ascending process id, one per
// process.
//
// The faces are ids without a removed set R of positions outside need
// (the zero set Φ), in preorder: R, then for each p ∈ Φ below R's lowest
// member, highest first, the faces of R ∪ {p}. With need 0 the empty
// face, R = Φ, is skipped. This is the order in which AddIDs' walk, which
// visits the face dropping the highest position first, reaches the same
// faces, so both insert the same entries.
//
// A pseudosphere's facets meet the precondition when they are inserted
// in mixed-radix order, last position fastest, into the complex of the
// facets before them: a face lies first in the facet that takes option 0
// wherever the face has no vertex, so the faces facet d adds are those
// holding every position whose option is not option 0. Once every facet
// is in, MarkPseudosphere lets the face table be computed for them.
func (c *Complex) AddNewFaces(ids []int32, need uint32) {
	if c.unplaced.Load() < 0 {
		c.unplaced.Store(int32(len(c.ends)))
	}
	if cap(c.subBuf) < len(ids) {
		c.subBuf = make([]int32, len(ids))
	}
	zero := (uint32(1)<<len(ids) - 1) &^ need
	c.newFaces(ids, zero, 0, len(ids))
}

// newFaces appends ids without the positions in removed, unless that is
// the empty face, then the faces that also remove each position p in
// zero below below, highest first.
func (c *Complex) newFaces(ids []int32, zero, removed uint32, below int) {
	sub := c.subBuf[:0]
	for i, id := range ids {
		if removed>>i&1 == 0 {
			sub = append(sub, id)
		}
	}
	if len(sub) > 0 {
		c.appendEntry(sub)
	}
	for m := zero & (uint32(1)<<below - 1); m != 0; {
		p := bits.Len32(m) - 1
		m &^= 1 << p
		c.newFaces(ids, zero, removed|1<<p, p)
	}
}

// MarkPseudosphere records that c holds exactly the pseudosphere whose
// option table opts gives, as vertex ids position by position, inserted
// through AddNewFaces from empty with its facets in mixed-radix order.
// The face table of those entries is then computed from each face's
// positions and option digits, with no index probe; entries inserted
// later are probed, and a Truncate below them drops the computation. A
// complex whose entry count is not the table's simplex count,
// ∏(|Vᵢ|+1)−1, keeps probing.
func (c *Complex) MarkPseudosphere(opts [][]int32) {
	s := &sphereFaces{end: len(c.ends), at: make([]optionAt, len(c.byID)), weight: make([]int, len(opts))}
	w := 1
	for i := len(opts) - 1; i >= 0; i-- {
		s.weight[i] = w
		w *= len(opts[i]) + 1
		for d, id := range opts[i] {
			s.at[id] = optionAt{int32(i), int32(d)}
		}
	}
	if w-1 == len(c.ends) {
		c.sphere = s
	}
}

// Reserve sizes the id arena and the end offsets once for a build that
// ends holding entries simplexes of ids vertex ids in all, so inserting
// up to that many allocates nothing there. It changes no entry, id or
// observable order.
func (c *Complex) Reserve(entries, ids int) {
	if n := ids - len(c.ids); n > 0 {
		c.ids = slices.Grow(c.ids, n)
	}
	if n := entries - len(c.ends); n > 0 {
		c.ends = slices.Grow(c.ends, n)
	}
}

// AddClosedIDs inserts the id sequence alone, without its faces, and
// reports whether it was absent: the bulk-load path for a face-closed set.
// The caller must load every face too, with ids interned in c and ordered
// by ascending process id.
func (c *Complex) AddClosedIDs(ids []int32) bool {
	c.placeAll()
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
	if c.sphere != nil && entries < c.sphere.end {
		c.sphere = nil
	}
	c.dim = -1
	for d, n := range c.counts {
		if n > 0 {
			c.dim = d
		}
	}
	// The next lookup places every entry again.
	clear(c.index)
	c.unplaced.Store(0)
	c.hash.Store(nil)
}
