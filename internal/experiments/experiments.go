// Package experiments regenerates every figure and quantitative result in
// the paper, as machine-checkable tables (see DESIGN.md's per-experiment
// index, E1-E15 and E32). Each experiment reports paper-expected versus
// measured values; cmd/experiments renders them and EXPERIMENTS.md records
// them.
package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string   // experiment id, e.g. "E1"
	Title   string   // short description
	Paper   string   // the paper artifact reproduced (figure/lemma/theorem)
	Headers []string // column names
	Rows    [][]string
	Notes   string // substitutions, caveats
	OK      bool   // every row matched the paper's expectation
}

// addRow appends a row and folds its match flag into the table.
func (t *Table) addRow(match bool, cells ...string) {
	status := "ok"
	if !match {
		status = "MISMATCH"
		t.OK = false
	}
	t.Rows = append(t.Rows, append(cells, status))
}

func newTable(id, title, paper string, headers ...string) *Table {
	return &Table{
		ID:      id,
		Title:   title,
		Paper:   paper,
		Headers: append(headers, "status"),
		OK:      true,
	}
}

// Runner enumerates the experiments.
type Runner struct{}

// Experiment pairs an id with its generator. Run observes the context:
// cancellation propagates into the long enumerations and reductions, and
// an obs.Tracker carried by the context collects progress counters.
type Experiment struct {
	ID   string
	Name string
	Run  func(context.Context) (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: three-process binary pseudosphere", E1Figure1},
		{"E2", "Figure 2: psi(S^1;{0,1}) and psi(S^1;{0,1,2})", E2Figure2},
		{"E3", "Lemma 11: async one-round complex is a pseudosphere", E3AsyncOneRound},
		{"E4", "Lemma 12 / Corollary 13: async connectivity and impossibility", E4AsyncConnectivity},
		{"E5", "Figure 3 / Lemma 14: sync one-round union of pseudospheres", E5SyncOneRound},
		{"E6", "Lemma 15: sync prefix intersections", E6SyncIntersections},
		{"E7", "Lemmas 16/17: sync connectivity", E7SyncConnectivity},
		{"E8", "Theorem 18: sync round bound, lower and upper", E8SyncBoundTable},
		{"E9", "Lemmas 19/20: semi-sync pseudospheres and intersections", E9SemiSyncOneRound},
		{"E10", "Lemma 21 / Corollary 22: semi-sync connectivity and time bound", E10SemiSyncBound},
		{"E11", "Lemma 4 / Corollaries 6 and 8: pseudosphere algebra", E11PseudosphereAlgebra},
		{"E12", "Theorem 9 engine: Sperner's lemma and obstruction vs search", E12Sperner},
		{"E13", "future work: f-resilient semi-sync bound ingredients", E13FResilientSemiSync},
		{"E14", "comparison: message-passing round vs iterated immediate snapshot", E14IISComparison},
		{"E15", "construction scaling across the parameter envelope", E15Scaling},
		{"E32", "Theorems 2, 5 and 7: connectivity transfer and Mayer-Vietoris unions", E32Transfer},
	}
}

// Render formats a table as aligned text.
func Render(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "reproduces: %s\n", t.Paper)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	status := "ALL ROWS MATCH"
	if !t.OK {
		status = "MISMATCHES PRESENT"
	}
	fmt.Fprintf(&b, "[%s]\n", status)
	return b.String()
}

// RenderMarkdown formats a table as a GitHub-flavored markdown section.
func RenderMarkdown(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Reproduces: %s\n\n", t.Paper)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\nNote: %s\n", t.Notes)
	}
	b.WriteByte('\n')
	return b.String()
}

func itoa(x int) string { return fmt.Sprintf("%d", x) }

func ints(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = itoa(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
