package topology

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Complex is a finite simplicial complex: a set of nonempty simplexes
// closed under containment (every nonempty face of a simplex in the complex
// is in the complex). The zero value is not usable; construct with
// NewComplex.
//
// Complexes here are chromatic (see Vertex); intersections of simplexes are
// automatically simplexes of the complex because the complex stores every
// face.
//
// Internally the complex interns vertices into dense int32 ids and stores
// each simplex as its id sequence in one flat arena, found through an
// open-addressing index over a 64-bit hash (see intern.go), so membership
// and face closure run without building string keys. The index is built
// on the first lookup, so a pseudosphere that only reads its face table
// never builds one. The representation is invisible through this API:
// the tests check every observable against the set of Key strings of the
// added simplexes' faces.
type Complex struct {
	verts  map[Vertex]int32 // intern table
	byID   []Vertex         // id -> vertex
	index  []uint64         // open-addressing simplex index; 0 = empty slot
	ids    []int32          // id arena: every entry's ids, insertion order
	ends   []int32          // end offset in ids of each entry
	counts []int            // f-vector, maintained incrementally
	dim    int              // highest dimension seen; -1 when empty

	// unplaced is the first entry the index lacks, and every later one
	// too, or -1 when it holds them all; placeAll places the rest under
	// indexMu (see intern.go).
	unplaced atomic.Int32
	indexMu  sync.Mutex

	// Memoized CanonicalHash; appendEntry, the single mutation point,
	// clears it.
	hash atomic.Pointer[string]

	// The face table (see incidence.go): faces[off+i] is the entry index
	// of the face omitting ids[off+i], or -1 where no such entry exists.
	// faceMu serializes the fill; faceUpTo is the entry count at the last
	// fill, so a reader that finds it equal to EntryCount takes no lock.
	// Every entry below faceFrom has every face present and exact slots.
	// sphere, when set, computes the faces of the entries below its end
	// instead of probing (MarkPseudosphere).
	faceMu   sync.Mutex
	faces    []int32
	faceUpTo atomic.Int32
	faceFrom int
	sphere   *sphereFaces

	// Reusable scratch (single-goroutine; a Complex has never been safe
	// for concurrent mutation).
	idBuf     []int32
	subBuf    []int32
	visited   []uint64
	maskStack []uint32
}

// NewComplex returns an empty complex.
func NewComplex() *Complex {
	return &Complex{
		verts: make(map[Vertex]int32),
		dim:   -1,
	}
}

// ComplexOf returns the complex generated by the given simplexes (each is
// added together with all its faces).
func ComplexOf(ss ...Simplex) *Complex {
	c := NewComplex()
	for _, s := range ss {
		c.Add(s)
	}
	return c
}

// Add inserts s and all of its nonempty faces into the complex. Adding the
// empty simplex is a no-op.
func (c *Complex) Add(s Simplex) {
	if len(s) == 0 {
		return
	}
	c.addClosure(c.internSimplex(s))
}

// Has reports whether s is a simplex of the complex. The empty simplex is a
// member of every nonempty complex.
func (c *Complex) Has(s Simplex) bool {
	if len(s) == 0 {
		return len(c.ends) > 0
	}
	ids, ok := c.lookupIDs(s)
	if !ok {
		return false
	}
	c.placeAll()
	return c.find(ids, hashIDs(ids)) >= 0
}

// HasVertex reports whether v is a vertex of the complex.
func (c *Complex) HasVertex(v Vertex) bool {
	_, ok := c.verts[v]
	return ok
}

// Size returns the total number of nonempty simplexes.
func (c *Complex) Size() int { return len(c.ends) }

// IsEmpty reports whether the complex has no simplexes.
func (c *Complex) IsEmpty() bool { return len(c.ends) == 0 }

// Dim returns the dimension of the complex (-1 if empty).
func (c *Complex) Dim() int { return c.dim }

// Simplices returns all simplexes of the given dimension, sorted by key.
func (c *Complex) Simplices(dim int) []Simplex {
	if dim < 0 || dim > c.dim {
		return nil
	}
	eis := make([]int32, 0, c.counts[dim])
	for ei := range c.ends {
		if len(c.entryIDs(int32(ei))) == dim+1 {
			eis = append(eis, int32(ei))
		}
	}
	c.sortByKey(eis, true)
	return c.simplicesAt(eis)
}

// AllSimplices returns every simplex of the complex, sorted by dimension
// then key.
func (c *Complex) AllSimplices() []Simplex {
	eis := make([]int32, len(c.ends))
	for i := range eis {
		eis[i] = int32(i)
	}
	c.sortByKey(eis, true)
	return c.simplicesAt(eis)
}

// Vertices returns the vertices of the complex, sorted by process id then
// label. (Every interned vertex is a 0-simplex: vertices enter the table
// through Add's closure, a member-simplex insertion, or Intern, whose
// callers insert a simplex holding the vertex before any read.)
func (c *Complex) Vertices() []Vertex {
	out := append([]Vertex(nil), c.byID...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// IDs returns the sorted set of process ids appearing in the complex.
func (c *Complex) IDs() []int {
	seen := make(map[int]bool)
	for _, v := range c.byID {
		seen[v.P] = true
	}
	ids := make([]int, 0, len(seen))
	for p := range seen {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	return ids
}

// Facets returns the maximal simplexes of the complex (those that are not a
// proper face of another simplex), sorted by dimension then key.
func (c *Complex) Facets() []Simplex {
	nonMax := c.nonMaximal()
	var eis []int32
	for ei, nm := range nonMax {
		if !nm {
			eis = append(eis, int32(ei))
		}
	}
	if len(eis) == 0 {
		return nil
	}
	c.sortByKey(eis, true)
	return c.simplicesAt(eis)
}

// FacetCount returns len(c.Facets()) without materializing or sorting
// the facets.
func (c *Complex) FacetCount() int {
	n := 0
	for _, nm := range c.nonMaximal() {
		if !nm {
			n++
		}
	}
	return n
}

// nonMaximal marks, by entry index, the simplexes that are a proper face
// of another: every entry the face table names. Because the complex is
// closed under faces, a simplex is maximal exactly when it is not a
// codimension-1 face of another simplex.
func (c *Complex) nonMaximal() []bool {
	nonMax := make([]bool, len(c.ends))
	for _, fi := range c.faceTable() {
		if fi >= 0 {
			nonMax[fi] = true
		}
	}
	return nonMax
}

// simplicesAt materializes the given entries in order, carving every
// simplex out of one backing array.
func (c *Complex) simplicesAt(eis []int32) []Simplex {
	total := 0
	for _, ei := range eis {
		total += len(c.entryIDs(ei))
	}
	flat := make([]Vertex, total)
	out := make([]Simplex, len(eis))
	off := 0
	for i, ei := range eis {
		ids := c.entryIDs(ei)
		s := flat[off : off+len(ids) : off+len(ids)]
		for j, id := range ids {
			s[j] = c.byID[id]
		}
		out[i] = s
		off += len(ids)
	}
	return out
}

// FVector returns the f-vector (f_0, f_1, ..., f_dim): the number of
// simplexes in each dimension. Empty complexes yield an empty slice.
func (c *Complex) FVector() []int {
	if c.dim < 0 {
		return nil
	}
	return append([]int(nil), c.counts[:c.dim+1]...)
}

// EulerCharacteristic returns the (non-reduced) Euler characteristic
// sum_d (-1)^d f_d.
func (c *Complex) EulerCharacteristic() int {
	chi := 0
	for d, f := range c.counts {
		if d%2 == 0 {
			chi += f
		} else {
			chi -= f
		}
	}
	return chi
}

// Clone returns an independent copy of the complex: inserting into one
// leaves the other unchanged. The copy starts without a face table, and
// computes the faces of a pseudosphere's entries as c does.
func (c *Complex) Clone() *Complex {
	out := &Complex{
		verts:  make(map[Vertex]int32, len(c.verts)),
		byID:   append([]Vertex(nil), c.byID...),
		index:  append([]uint64(nil), c.index...),
		ids:    append([]int32(nil), c.ids...),
		ends:   append([]int32(nil), c.ends...),
		counts: append([]int(nil), c.counts...),
		dim:    c.dim,
		sphere: c.sphere,
	}
	out.unplaced.Store(c.unplaced.Load())
	for v, id := range c.verts {
		out.verts[v] = id
	}
	return out
}

// Union returns the complex whose simplexes are those of c or d.
func (c *Complex) Union(d *Complex) *Complex {
	out := c.Clone()
	out.UnionWith(d)
	return out
}

// UnionWith adds every simplex of d to c in place. No closure walk is
// needed: d is itself closed under faces, so every face arrives as its own
// entry.
func (c *Complex) UnionWith(d *Complex) {
	if d.IsEmpty() {
		return
	}
	c.placeAll()
	trans := c.translationTo(d)
	buf := make([]int32, d.dim+1)
	for ei := range d.ends {
		ids, _ := translate(d.entryIDs(int32(ei)), trans, buf)
		c.insertIfAbsent(ids)
	}
}

// Intersection returns the complex whose simplexes belong to both c and d.
// The intersection of two simplicial complexes is a simplicial complex, so
// no closure step is needed.
func (c *Complex) Intersection(d *Complex) *Complex {
	small, large := c, d
	if len(d.ends) < len(c.ends) {
		small, large = d, c
	}
	out := NewComplex()
	if small.IsEmpty() {
		return out
	}
	large.placeAll()
	trans := large.lookupTranslation(small)
	buf := make([]int32, small.dim+1)
	for ei := range small.ends {
		ids, ok := translate(small.entryIDs(int32(ei)), trans, buf)
		if !ok || large.find(ids, hashIDs(ids)) < 0 {
			continue
		}
		out.addDirect(small.simplexAt(int32(ei))) // intersections are face-closed
	}
	return out
}

// Equal reports whether c and d have exactly the same simplexes.
func (c *Complex) Equal(d *Complex) bool {
	if len(c.ends) != len(d.ends) {
		return false
	}
	return c.IsSubcomplexOf(d)
}

// IsSubcomplexOf reports whether every simplex of c is a simplex of d.
func (c *Complex) IsSubcomplexOf(d *Complex) bool {
	if len(c.ends) > len(d.ends) {
		return false
	}
	if c.IsEmpty() {
		return true
	}
	d.placeAll()
	trans := d.lookupTranslation(c)
	buf := make([]int32, c.dim+1)
	for ei := range c.ends {
		ids, ok := translate(c.entryIDs(int32(ei)), trans, buf)
		if !ok || d.find(ids, hashIDs(ids)) < 0 {
			return false
		}
	}
	return true
}

// Skeleton returns the k-skeleton: the subcomplex of simplexes of dimension
// at most k.
func (c *Complex) Skeleton(k int) *Complex {
	out := NewComplex()
	for ei := range c.ends {
		if len(c.entryIDs(int32(ei)))-1 <= k {
			out.addDirect(c.simplexAt(int32(ei))) // skeleton is face-closed
		}
	}
	return out
}

// Restriction returns the full subcomplex induced by the simplexes all of
// whose vertices satisfy keep.
func (c *Complex) Restriction(keep func(Vertex) bool) *Complex {
	out := NewComplex()
	for ei := range c.ends {
		ok := true
		for _, id := range c.entryIDs(int32(ei)) {
			if !keep(c.byID[id]) {
				ok = false
				break
			}
		}
		if ok {
			out.addDirect(c.simplexAt(int32(ei))) // restriction is face-closed
		}
	}
	return out
}

// Link returns the link of v: the simplexes t such that t does not contain
// v but t joined with v is in the complex.
func (c *Complex) Link(v Vertex) *Complex {
	out := NewComplex()
	id, ok := c.verts[v]
	if !ok {
		return out
	}
	for ei := range c.ends {
		has := false
		for _, eid := range c.entryIDs(int32(ei)) {
			if eid == id {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		f := c.simplexAt(int32(ei)).WithoutID(v.P)
		if len(f) > 0 {
			// The link is face-closed and every link simplex arises from
			// its own containing entry, so no closure walk is needed.
			out.addDirect(f)
		}
	}
	return out
}

// Join returns the simplicial join of c and d: simplexes s ∪ t for s in c
// (or empty), t in d (or empty). The process-id sets of c and d must be
// disjoint; Join reports an error otherwise.
func (c *Complex) Join(d *Complex) (*Complex, error) {
	for _, p := range c.IDs() {
		for _, q := range d.IDs() {
			if p == q {
				return nil, fmt.Errorf("topology: join of complexes sharing process id %d", p)
			}
		}
	}
	out := NewComplex()
	cs := append(c.AllSimplices(), Simplex{})
	ds := append(d.AllSimplices(), Simplex{})
	for _, s := range cs {
		for _, t := range ds {
			if len(s)+len(t) == 0 {
				continue
			}
			j, err := s.Join(t)
			if err != nil {
				return nil, err
			}
			out.Add(j)
		}
	}
	return out, nil
}

// String summarizes the complex, e.g. "Complex(dim=2, f=[6 12 8])".
func (c *Complex) String() string {
	return fmt.Sprintf("Complex(dim=%d, f=%v)", c.dim, c.FVector())
}

// DescribeFacets renders the facets one per line (for debugging and the CLI
// tools).
func (c *Complex) DescribeFacets() string {
	var b strings.Builder
	for _, s := range c.Facets() {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}
