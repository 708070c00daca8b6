package topology

import "math/bits"

// The interned complex core.
//
// A Complex stores each distinct vertex once in a per-complex intern table
// (Vertex -> dense int32 id) and each simplex as its vertex-id sequence in
// ascending process-id order, the same canonical order Simplex itself
// maintains. Simplexes are indexed by a cheap 64-bit hash of the id
// sequence with collision buckets, so membership tests and face closure
// never build string keys. Id slices are carved out of a chunked arena to
// keep one Add from costing one allocation per face.

// simplexEntry is one stored simplex: its interned vertex ids in ascending
// process-id order. Entries are append-only and immutable once inserted.
type simplexEntry struct {
	ids []int32
}

// arenaChunk is the growth quantum of the id arena. Old chunks stay
// referenced by the entries carved from them; only the slack at the end of
// a chunk is ever wasted.
const arenaChunk = 8192

// maskWalkLimit bounds the bitmask closure walk: simplexes with more
// vertices fall back to a recursive face closure. Chromatic simplexes have
// one vertex per process, so real workloads sit far below this.
const maskWalkLimit = 25

// intern returns the dense id of v, assigning the next id on first sight.
func (c *Complex) intern(v Vertex) int32 {
	if id, ok := c.verts[v]; ok {
		return id
	}
	id := int32(len(c.byID))
	c.verts[v] = id
	c.byID = append(c.byID, v)
	return id
}

// hashIDs mixes an id sequence into a 64-bit bucket key (splitmix-style
// rounds; collisions are resolved by exact comparison in find).
func hashIDs(ids []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// find returns the entry index storing exactly ids (hashed to h), or -1.
func (c *Complex) find(ids []int32, h uint64) int32 {
	for _, ei := range c.table[h] {
		e := c.entries[ei].ids
		if len(e) != len(ids) {
			continue
		}
		match := true
		for i := range e {
			if e[i] != ids[i] {
				match = false
				break
			}
		}
		if match {
			return ei
		}
	}
	return -1
}

// allocIDs copies ids into the arena and returns the stable copy.
func (c *Complex) allocIDs(ids []int32) []int32 {
	n := len(ids)
	if cap(c.arena)-len(c.arena) < n {
		grow := arenaChunk
		if grow < n {
			grow = n
		}
		c.arena = make([]int32, 0, grow)
	}
	off := len(c.arena)
	c.arena = c.arena[:off+n]
	dst := c.arena[off : off+n : off+n]
	copy(dst, ids)
	return dst
}

// insert stores ids (hashed to h) as a new entry, updating the f-vector
// and dimension and dropping the memoized canonical hash. The caller must
// have checked absence.
func (c *Complex) insert(ids []int32, h uint64) {
	if c.hash.Load() != nil {
		c.hash.Store(nil)
	}
	ei := int32(len(c.entries))
	c.entries = append(c.entries, simplexEntry{ids: c.allocIDs(ids)})
	c.table[h] = append(c.table[h], ei)
	d := len(ids) - 1
	for len(c.counts) <= d {
		c.counts = append(c.counts, 0)
	}
	c.counts[d]++
	if d > c.dim {
		c.dim = d
	}
}

// insertIfAbsent inserts ids unless present; it performs no face closure,
// so callers must guarantee every face of ids is (or will be) inserted.
func (c *Complex) insertIfAbsent(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) < 0 {
		c.insert(ids, h)
	}
}

// internSimplex interns the vertices of s and returns their ids in s's own
// (ascending process-id) order, reusing the complex's scratch buffer. The
// result is only valid until the next internSimplex call.
func (c *Complex) internSimplex(s Simplex) []int32 {
	if cap(c.idBuf) < len(s) {
		c.idBuf = make([]int32, len(s))
	}
	ids := c.idBuf[:len(s)]
	for i, v := range s {
		ids[i] = c.intern(v)
	}
	return ids
}

// lookupIDs maps s to its id sequence without interning. It reports false
// if some vertex has never been seen (so s cannot be present). It
// allocates its own buffer: lookups are read-only and must stay safe under
// concurrent readers (the homology engine hashes and indexes shared
// complexes from several goroutines).
func (c *Complex) lookupIDs(s Simplex) ([]int32, bool) {
	ids := make([]int32, len(s))
	for i, v := range s {
		id, ok := c.verts[v]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// addDirect inserts s without a closure walk; valid only when the caller
// adds a face-closed set of simplexes entry by entry.
func (c *Complex) addDirect(s Simplex) {
	c.insertIfAbsent(c.internSimplex(s))
}

// addClosure inserts ids and every nonempty face, walking the subset
// lattice iteratively by bitmask. A face found present is skipped together
// with its whole subtree — the complex is closed under containment, so
// every subset of a present face is already present. This is the hot inner
// loop of every model constructor.
func (c *Complex) addClosure(ids []int32) {
	n := len(ids)
	if n == 0 {
		return
	}
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return // fast path: facet re-added by an enumerator
	}
	if n > maskWalkLimit {
		c.addClosureRecursive(ids)
		return
	}
	full := uint32(1)<<uint(n) - 1
	words := (int(full) >> 6) + 1
	if cap(c.visited) < words {
		c.visited = make([]uint64, words)
	} else {
		c.visited = c.visited[:words]
		for i := range c.visited {
			c.visited[i] = 0
		}
	}
	if cap(c.subBuf) < n {
		c.subBuf = make([]int32, n)
	}
	sub := c.subBuf
	stack := c.maskStack[:0]
	stack = append(stack, full)
	for len(stack) > 0 {
		mask := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.visited[mask>>6]>>(mask&63)&1 == 1 {
			continue
		}
		c.visited[mask>>6] |= 1 << (mask & 63)
		k := 0
		for m := mask; m != 0; m &= m - 1 {
			sub[k] = ids[bits.TrailingZeros32(m)]
			k++
		}
		sh := hashIDs(sub[:k])
		if c.find(sub[:k], sh) >= 0 {
			continue // whole subtree already present
		}
		c.insert(sub[:k], sh)
		for m := mask; m != 0; m &= m - 1 {
			child := mask &^ (1 << uint(bits.TrailingZeros32(m)))
			if child != 0 {
				stack = append(stack, child)
			}
		}
	}
	c.maskStack = stack[:0]
}

// addClosureRecursive is the fallback closure for simplexes too large for
// the bitmask walk; it mirrors the former recursive Add.
func (c *Complex) addClosureRecursive(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return
	}
	c.insert(ids, h)
	if len(ids) == 1 {
		return
	}
	face := make([]int32, len(ids)-1)
	for i := range ids {
		copy(face, ids[:i])
		copy(face[i:], ids[i+1:])
		c.addClosureRecursive(face)
	}
}

// simplexAt materializes the entry at index ei as a Simplex.
func (c *Complex) simplexAt(ei int32) Simplex {
	ids := c.entries[ei].ids
	s := make(Simplex, len(ids))
	for i, id := range ids {
		s[i] = c.byID[id]
	}
	return s
}

// translationTo returns a map from d's vertex ids to c's, interning every
// vertex of d into c (used by UnionWith, where all of d is inserted).
func (c *Complex) translationTo(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		trans[i] = c.intern(v)
	}
	return trans
}

// lookupTranslation maps d's vertex ids to c's without interning; absent
// vertices map to -1 (used by membership-only paths).
func (c *Complex) lookupTranslation(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		if id, ok := c.verts[v]; ok {
			trans[i] = id
		} else {
			trans[i] = -1
		}
	}
	return trans
}

// translate maps entry ids through trans into buf; it reports false if a
// vertex is missing (trans value -1). Ascending process-id order is
// preserved because translation never changes a vertex's process id.
func translate(ids []int32, trans []int32, buf []int32) ([]int32, bool) {
	for i, id := range ids {
		t := trans[id]
		if t < 0 {
			return nil, false
		}
		buf[i] = t
	}
	return buf[:len(ids)], true
}
