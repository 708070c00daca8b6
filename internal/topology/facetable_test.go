package topology

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// faceReference is the face table's definition, computed without it: every
// entry's codimension-1 faces looked up by key among the complex's own
// entries (-1 where absent, none for a vertex), and the facets as the
// entries no entry has for a face, in (dimension, key) order.
func faceReference(c *Complex) (faces [][]int32, facets []string) {
	byKey := make(map[string]int32, c.EntryCount())
	for ei := int32(0); ei < int32(c.EntryCount()); ei++ {
		byKey[c.EntrySimplex(ei).Key()] = ei
	}
	faces = make([][]int32, c.EntryCount())
	isFace := make([]bool, c.EntryCount())
	for ei := range faces {
		s := c.EntrySimplex(int32(ei))
		if len(s) < 2 {
			continue
		}
		for i := range s {
			fi, ok := byKey[s.Face(i).Key()]
			if !ok {
				fi = -1
			} else {
				isFace[fi] = true
			}
			faces[ei] = append(faces[ei], fi)
		}
	}
	var ss []Simplex
	for ei, nm := range isFace {
		if !nm {
			ss = append(ss, c.EntrySimplex(int32(ei)))
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		if len(ss[i]) != len(ss[j]) {
			return len(ss[i]) < len(ss[j])
		}
		return ss[i].Key() < ss[j].Key()
	})
	for _, s := range ss {
		facets = append(facets, s.Key())
	}
	return faces, facets
}

// checkFaceTable fails unless EntryFaces, FacetCount and Facets agree with
// faceReference on c.
func checkFaceTable(t *testing.T, ctx string, c *Complex) {
	t.Helper()
	faces, facets := faceReference(c)
	for ei, want := range faces {
		if got := c.EntryFaces(int32(ei)); !slices.Equal(got, want) {
			t.Fatalf("%s: EntryFaces(%d) of %v = %v, want %v", ctx, ei, c.EntrySimplex(int32(ei)), got, want)
		}
	}
	if got := c.FacetCount(); got != len(facets) {
		t.Fatalf("%s: FacetCount = %d, want %d", ctx, got, len(facets))
	}
	var got []string
	for _, s := range c.Facets() {
		got = append(got, s.Key())
	}
	if !slices.Equal(got, facets) {
		t.Fatalf("%s: Facets = %v, want %v", ctx, got, facets)
	}
}

// newFacesSphere builds a random pseudosphere of up to four positions
// and three options each through AddNewFaces, facets in mixed-radix
// order, last position fastest, reserving room first on odd draws and
// reading the face table between some facets, then hands it the option
// table. It fails unless AddIDs, facet by facet, inserts the same
// entries, unless that copy, handed a table short of one position,
// keeps probing, and unless Has, IsSubcomplexOf and Intersection, each
// run first on a copy whose index lacks the appended entries, find them
// all.
// It returns the complex and the marks taken between some facets.
func newFacesSphere(t *testing.T, name string, rng *rand.Rand) (*Complex, [][2]int) {
	t.Helper()
	c, probed := NewComplex(), NewComplex()
	opts := make([][]Vertex, 1+rng.Intn(4))
	for p := range opts {
		for o := 0; o < 1+rng.Intn(3); o++ {
			opts[p] = append(opts[p], hv(2*p, fmt.Sprint(o)))
		}
	}
	if rng.Intn(2) == 1 {
		c.Reserve(8, 20)
	}
	var marks [][2]int
	idx, ids := make([]int, len(opts)), make([]int32, len(opts))
	for {
		var need uint32
		for i, d := range idx {
			ids[i], _ = c.Intern(opts[i][d])
			probed.Intern(opts[i][d])
			if d != 0 {
				need |= 1 << i
			}
		}
		c.AddNewFaces(ids, need)
		probed.AddIDs(ids)
		if rng.Intn(4) == 0 {
			checkFaceTable(t, fmt.Sprintf("%s: facet %v", name, idx), c)
		}
		if rng.Intn(4) == 0 {
			marks = append(marks, [2]int{c.VertexCount(), c.EntryCount()})
		}
		i := len(idx) - 1
		for ; i >= 0 && idx[i]+1 == len(opts[i]); i-- {
			idx[i] = 0
		}
		if i < 0 {
			break
		}
		idx[i]++
	}
	table := make([][]int32, len(opts))
	for p, o := range opts {
		for _, v := range o {
			id, _ := c.Intern(v)
			table[p] = append(table[p], id)
		}
	}
	c.MarkPseudosphere(table)
	probed.MarkPseudosphere(table[:len(table)-1]) // not its pseudosphere: it keeps probing
	checkFaceTable(t, name+": probed", probed)
	if c.EntryCount() != probed.EntryCount() {
		t.Fatalf("AddNewFaces inserted %d entries, AddIDs %d", c.EntryCount(), probed.EntryCount())
	}
	for ei := range int32(c.EntryCount()) {
		if g, w := c.entryIDs(ei), probed.entryIDs(ei); !slices.Equal(g, w) {
			t.Fatalf("AddNewFaces entry %d is %v, AddIDs %v", ei, g, w)
		}
	}
	has := c.Clone()
	for ei := range int32(c.EntryCount()) {
		if !has.Has(c.EntrySimplex(ei)) {
			t.Fatalf("%s: Has misses entry %d, %v", name, ei, c.EntrySimplex(ei))
		}
	}
	if !probed.IsSubcomplexOf(c.Clone()) || !probed.Intersection(c.Clone()).Equal(probed) {
		t.Fatalf("%s: IsSubcomplexOf or Intersection misses an entry", name)
	}
	return c, marks
}

// TestFaceTableMatchesProbes drives complexes through every mutation path
// in random order, reading the face table after some steps and not others,
// so fills extend tables that lag by several insertions. Bulk loads insert
// a face-closed set row by row in random order, cofaces often before their
// faces, with reads between rows, and truncations go back to earlier marks,
// some taken in the middle of such a load. Each seed's operations run
// twice: from an empty complex, and from a pseudosphere built through
// AddNewFaces, which draws from a random source of its own. That one
// starts with an index that lacks its entries and a face table computed
// from its option table, and with marks taken while it was built, so
// truncations go below its entries as well as above.
func TestFaceTableMatchesProbes(t *testing.T) {
	labels := []string{"a", "b", "c"}
	spheres := rand.New(rand.NewSource(-1))
	for run := int64(0); run < 120; run++ {
		seed := run % 60
		rng := rand.New(rand.NewSource(seed))
		c, name := NewComplex(), fmt.Sprintf("seed %d", seed)
		var marks [][2]int // (vertices, entries) c has only grown since
		if run >= 60 {
			name += " from a pseudosphere"
			c, marks = newFacesSphere(t, name, spheres)
		}
		other := func() *Complex {
			d := NewComplex()
			for k := 0; k < 1+rng.Intn(4); k++ {
				d.Add(randomSimplex(rng, 5, labels))
			}
			return d
		}
		replace := func(d *Complex) {
			c, marks = d, nil
		}
		for step := 0; step < 30; step++ {
			op := rng.Intn(12)
			switch op {
			case 0:
				c.Add(randomSimplex(rng, 5, labels))
			case 1:
				s := randomSimplex(rng, 5, labels)
				ids := make([]int32, len(s))
				for i, v := range s {
					ids[i], _ = c.Intern(v)
				}
				c.AddIDs(ids)
			case 2:
				rows := KeySet{}
				rows.Add(randomSimplex(rng, 5, labels))
				all := rows.All()
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				for _, s := range all {
					ids := make([]int32, len(s))
					for i, v := range s {
						ids[i], _ = c.Intern(v)
					}
					c.AddClosedIDs(ids)
					if rng.Intn(2) == 0 {
						checkFaceTable(t, fmt.Sprintf("%s step %d: row %v", name, step, s), c)
					}
					if rng.Intn(4) == 0 {
						marks = append(marks, [2]int{c.VertexCount(), c.EntryCount()})
					}
				}
			case 3:
				c.UnionWith(other())
			case 4:
				if len(marks) > 0 {
					i := rng.Intn(len(marks))
					c.Truncate(marks[i][0], marks[i][1])
					marks = marks[:i+1]
				}
			case 5:
				c = c.Clone() // same entries, so the marks hold
			case 6:
				replace(c.Intersection(c.Union(other())))
			case 7:
				replace(c.Skeleton(rng.Intn(c.Dim() + 2)))
			case 8:
				drop := labels[rng.Intn(len(labels))]
				replace(c.Restriction(func(v Vertex) bool { return v.Label != drop }))
			case 9:
				if c.VertexCount() == 0 {
					continue
				}
				replace(c.Link(c.VertexAt(int32(rng.Intn(c.VertexCount())))))
			case 10:
				if slices.ContainsFunc(c.IDs(), func(p int) bool { return p >= 5 }) {
					continue
				}
				j, err := c.Join(ComplexOf(mustSimplex(hv(5, "j"), hv(6, "k")), mustSimplex(hv(6, "m"))))
				if err != nil {
					t.Fatal(err)
				}
				replace(j)
			case 11:
				marks = append(marks, [2]int{c.VertexCount(), c.EntryCount()})
			}
			if rng.Intn(2) == 0 {
				checkFaceTable(t, fmt.Sprintf("%s step %d (op %d)", name, step, op), c)
			}
		}
		checkFaceTable(t, fmt.Sprintf("%s end", name), c)
	}
}

// TestRadixOrderMatchesComparator sorts entries with sortPacked's radix
// sort on complexes built to take each of its paths — key and entry index
// in one uint64, the index beside the key, and a key too wide for either —
// and requires the order the string keys give. Process ids reach 10 and
// beyond, where "10:a" sorts before "2:a", and one family has tokens that
// prefix each other, where sortByKey must render keys instead.
func TestRadixOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		path        string // the sort path the complex must take
		procs, opts int
		facets      int
		labels      []string // nil: two-digit labels below opts
	}{
		{"packed", 5, 3, 20, []string{"a", "b", "c"}},
		{"pairs", 8, 14, 60, nil},
		{"wide", 9, 40, 30, nil},
		{"rendered", 6, 3, 20, []string{"a", "ab", "b"}},
	}
	for _, tc := range cases {
		c := NewComplex()
		for k := 0; k < tc.facets; k++ {
			var vs []Vertex
			for p := 0; p < tc.procs; p++ {
				if tc.path == "packed" || tc.path == "rendered" {
					if rng.Intn(2) == 0 {
						continue
					}
				}
				label := fmt.Sprintf("%02d", rng.Intn(tc.opts))
				if tc.labels != nil {
					label = tc.labels[rng.Intn(len(tc.labels))]
				}
				vs = append(vs, hv(3*p, label))
			}
			if len(vs) > 0 {
				c.Add(mustSimplex(vs...))
			}
		}
		for _, byDim := range []bool{false, true} {
			ranks, ok := c.keyRanks(c.keyTokens())
			path := "rendered"
			if ok {
				width := bits.Len(uint(c.VertexCount()))
				keyBits := (c.Dim() + 1) * width
				if byDim {
					keyBits += bits.Len(uint(c.Dim()))
				}
				switch idxBits := bits.Len(uint(c.EntryCount() - 1)); {
				case keyBits > 64:
					path = "wide"
				case keyBits+idxBits > 64:
					path = "pairs"
				default:
					path = "packed"
				}
				if packed := c.sortPacked(make([]int32, 1), ranks, byDim); packed != (path != "wide") {
					t.Fatalf("%s byDim=%v: sortPacked = %v on the %s path", tc.path, byDim, packed, path)
				}
			}
			if path != tc.path {
				t.Fatalf("byDim=%v: %d vertices, %d entries, dim %d take the %s path, want %s",
					byDim, c.VertexCount(), c.EntryCount(), c.Dim(), path, tc.path)
			}
			eis := make([]int32, c.EntryCount())
			for i := range eis {
				eis[i] = int32(i)
			}
			rng.Shuffle(len(eis), func(i, j int) { eis[i], eis[j] = eis[j], eis[i] })
			want := slices.Clone(eis)
			slices.SortFunc(want, func(a, b int32) int {
				x, y := c.EntrySimplex(a), c.EntrySimplex(b)
				if byDim && len(x) != len(y) {
					return len(x) - len(y)
				}
				return strings.Compare(x.Key(), y.Key())
			})
			c.sortByKey(eis, byDim)
			if !slices.Equal(eis, want) {
				t.Fatalf("%s byDim=%v: order differs from the string keys'", tc.path, byDim)
			}
		}
	}
}
