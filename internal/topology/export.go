package topology

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// ToDOT renders the 1-skeleton of the complex as a Graphviz graph. Vertices
// are grouped by process id (one fillcolor per process); triangles and
// higher simplexes are visible as cliques.
func (c *Complex) ToDOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	b.WriteString("  node [style=filled];\n")
	palette := []string{
		"lightblue", "lightsalmon", "palegreen", "plum", "khaki",
		"lightcyan", "mistyrose", "honeydew",
	}
	for _, v := range c.Vertices() {
		color := palette[v.P%len(palette)]
		fmt.Fprintf(&b, "  %q [label=%q, fillcolor=%q];\n",
			v.String(), fmt.Sprintf("P%d\\n%s", v.P, v.Label), color)
	}
	for _, e := range c.Simplices(1) {
		fmt.Fprintf(&b, "  %q -- %q;\n", e[0].String(), e[1].String())
	}
	b.WriteString("}\n")
	return b.String()
}

// exportedComplex is the JSON shape of a complex dump.
type exportedComplex struct {
	Dim     int            `json:"dim"`
	FVector []int          `json:"fVector"`
	Facets  [][]jsonVertex `json:"facets"`
}

type jsonVertex struct {
	P     int    `json:"p"`
	Label string `json:"label"`
}

// ToJSON serializes the complex's facets (the rest is recoverable by face
// closure) together with summary statistics.
func (c *Complex) ToJSON() ([]byte, error) {
	out := exportedComplex{
		Dim:     c.Dim(),
		FVector: c.FVector(),
	}
	for _, f := range c.Facets() {
		row := make([]jsonVertex, len(f))
		for i, v := range f {
			row[i] = jsonVertex{P: v.P, Label: v.Label}
		}
		out.Facets = append(out.Facets, row)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DescribeSummary returns a one-line statistics summary useful in CLIs.
func (c *Complex) DescribeSummary() string {
	ids := c.IDs()
	idStrs := make([]string, len(ids))
	for i, p := range ids {
		idStrs[i] = fmt.Sprintf("%d", p)
	}
	sort.Strings(idStrs)
	return fmt.Sprintf("dim=%d simplexes=%d facets=%d processes={%s} chi=%d",
		c.Dim(), c.Size(), c.FacetCount(), strings.Join(idStrs, ","), c.EulerCharacteristic())
}
