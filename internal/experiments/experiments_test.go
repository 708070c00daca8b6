package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestAllExperimentsMatchPaper runs the entire harness and requires every
// row of every table to match the paper's expectation.
func TestAllExperimentsMatchPaper(t *testing.T) {
	for _, e := range All() {
		table, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !table.OK {
			t.Errorf("%s (%s) has mismatching rows:\n%s", table.ID, table.Title, Render(table))
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s has no rows", table.ID)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tb, err := E1Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	text := Render(tb)
	if !strings.Contains(text, "E1") || !strings.Contains(text, "ALL ROWS MATCH") {
		t.Fatalf("text rendering:\n%s", text)
	}
	md := RenderMarkdown(tb)
	if !strings.Contains(md, "### E1") || !strings.Contains(md, "| quantity |") {
		t.Fatalf("markdown rendering:\n%s", md)
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}
