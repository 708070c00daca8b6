package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
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

// TestBuildsStopWhenCancelled: E12's obstruction checks and E32's
// protocol maps build under the run's ctx and return its error, not an
// answer from the empty complexes a cancelled build leaves. E12 would
// still return the error from a later build if its Theorem 9 and
// Corollary 10 checks read a failed build as an empty complex, so those
// checks run alone too.
func TestBuildsStopWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := asyncmodel.Params{N: 2, F: 1}.Operator()
	for name, run := range map[string]func() (any, error){
		"E12":          func() (any, error) { return E12Sperner(ctx) },
		"E32":          func() (any, error) { return E32Transfer(ctx) },
		"Theorem 9":    func() (any, error) { return theorem9Over(ctx, op, 2, binary, 1) },
		"Corollary 10": func() (any, error) { return corollary10On(ctx, op, 2, 1) },
	} {
		if got, err := run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s, cancelled, returned %v and %v", name, got, err)
		}
	}
}
