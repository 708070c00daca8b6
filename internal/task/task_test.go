package task

import (
	"context"
	"errors"
	"testing"

	"pseudosphere/internal/topology"
)

func v(p int, label string) topology.Vertex { return topology.Vertex{P: p, Label: label} }

func annotated(c *topology.Complex, allowed map[topology.Vertex][]string) *Annotated {
	return &Annotated{Complex: c, Allowed: allowed}
}

// decide runs the decision search without a deadline.
func decide(a *Annotated, k int, nodeLimit int64) (DecisionMap, bool, error) {
	return FindDecisionParallelCtx(context.Background(), a, k, nodeLimit, 1)
}

func TestFindConsensusOnMonochromeComponent(t *testing.T) {
	// Path a--b--c where every vertex allows {0,1}: consensus exists.
	c := topology.ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b")),
		mustSimplex(v(1, "b"), v(0, "c")),
	)
	allowed := map[topology.Vertex][]string{
		v(0, "a"): {"0", "1"},
		v(1, "b"): {"0", "1"},
		v(0, "c"): {"0", "1"},
	}
	dm, found, err := decide(annotated(c, allowed), 1, 0)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if err := CheckDecision(annotated(c, allowed), dm, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFindConsensusImpossibleOnForcedPath(t *testing.T) {
	// Path where one end allows only 0 and the other only 1: the
	// component has no common value, so consensus is impossible.
	c := topology.ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b")),
		mustSimplex(v(1, "b"), v(0, "c")),
	)
	allowed := map[topology.Vertex][]string{
		v(0, "a"): {"0"},
		v(1, "b"): {"0", "1"},
		v(0, "c"): {"1"},
	}
	_, found, err := decide(annotated(c, allowed), 1, 0)
	if err != nil || found {
		t.Fatalf("found=%v err=%v; want impossible", found, err)
	}
}

func TestFindConsensusDisconnectedComponents(t *testing.T) {
	// Two components with different forced values: fine for consensus
	// (each simplex is monochromatic).
	c := topology.ComplexOf(
		mustSimplex(v(0, "a"), v(1, "b")),
		mustSimplex(v(0, "x"), v(1, "y")),
	)
	allowed := map[topology.Vertex][]string{
		v(0, "a"): {"0"}, v(1, "b"): {"0"},
		v(0, "x"): {"1"}, v(1, "y"): {"1"},
	}
	dm, found, err := decide(annotated(c, allowed), 1, 0)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if dm[v(0, "a")] != "0" || dm[v(0, "x")] != "1" {
		t.Fatalf("decisions: %v", dm)
	}
}

func TestFindDecisionK2Triangle(t *testing.T) {
	// A triangle with three forced distinct values cannot solve 2-set
	// agreement, but relaxing one vertex makes it solvable.
	tri := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	c := topology.ComplexOf(tri)
	forced := map[topology.Vertex][]string{
		v(0, "a"): {"0"}, v(1, "b"): {"1"}, v(2, "c"): {"2"},
	}
	_, found, err := decide(annotated(c, forced), 2, 0)
	if err != nil || found {
		t.Fatalf("found=%v err=%v; want impossible", found, err)
	}
	relaxed := map[topology.Vertex][]string{
		v(0, "a"): {"0"}, v(1, "b"): {"1"}, v(2, "c"): {"2", "0"},
	}
	dm, found, err := decide(annotated(c, relaxed), 2, 0)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v; want solvable", found, err)
	}
	if err := CheckDecision(annotated(c, relaxed), dm, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFindDecisionSearchLimit(t *testing.T) {
	// A larger instance with an immediate dead end everywhere but a tiny
	// node budget: the search must report ErrSearchLimit, not a wrong
	// answer.
	var simplexes []topology.Simplex
	allowed := make(map[topology.Vertex][]string)
	for i := 0; i < 6; i++ {
		a := v(0, string(rune('a'+i)))
		b := v(1, string(rune('a'+i)))
		simplexes = append(simplexes, mustSimplex(a, b))
		allowed[a] = []string{"0", "1", "2"}
		allowed[b] = []string{"0", "1", "2"}
	}
	c := topology.ComplexOf(simplexes...)
	_, _, err := decide(annotated(c, allowed), 2, 1)
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("err = %v, want ErrSearchLimit", err)
	}
}

func TestCheckDecisionViolations(t *testing.T) {
	tri := mustSimplex(v(0, "a"), v(1, "b"), v(2, "c"))
	c := topology.ComplexOf(tri)
	allowed := map[topology.Vertex][]string{
		v(0, "a"): {"0"}, v(1, "b"): {"1"}, v(2, "c"): {"2"},
	}
	ann := annotated(c, allowed)
	full := DecisionMap{v(0, "a"): "0", v(1, "b"): "1", v(2, "c"): "2"}
	if err := CheckDecision(ann, full, 2); err == nil {
		t.Fatal("3 distinct values must violate 2-set agreement")
	}
	if err := CheckDecision(ann, full, 3); err != nil {
		t.Fatalf("3-set agreement should pass: %v", err)
	}
	invalid := DecisionMap{v(0, "a"): "9", v(1, "b"): "1", v(2, "c"): "2"}
	if err := CheckDecision(ann, invalid, 3); err == nil {
		t.Fatal("validity violation not caught")
	}
	missing := DecisionMap{v(0, "a"): "0"}
	if err := CheckDecision(ann, missing, 3); err == nil {
		t.Fatal("missing decision not caught")
	}
}

func TestAnnotatedValidate(t *testing.T) {
	c := topology.ComplexOf(mustSimplex(v(0, "a")))
	if err := annotated(c, map[topology.Vertex][]string{}).validate(c.Vertices()); err == nil {
		t.Fatal("missing allowed set not caught")
	}
}

func TestRunOutcomeChecks(t *testing.T) {
	o := &RunOutcome{
		Inputs:    map[int]string{0: "0", 1: "1", 2: "1"},
		Decisions: map[int]string{0: "0", 1: "1", 2: "1"},
		Crashed:   map[int]bool{},
	}
	if err := o.CheckKSetAgreement(2); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckConsensus(); err == nil {
		t.Fatal("two distinct decisions must violate consensus")
	}
	o.Decisions[2] = "7"
	if err := o.CheckKSetAgreement(2); err == nil {
		t.Fatal("non-input decision must violate validity")
	}
	o.Decisions = map[int]string{0: "0"}
	if err := o.CheckKSetAgreement(2); err == nil {
		t.Fatal("undecided live processes must violate termination")
	}
	o.Crashed = map[int]bool{1: true, 2: true}
	if err := o.CheckKSetAgreement(2); err != nil {
		t.Fatalf("crashed processes are exempt from termination: %v", err)
	}
}

func TestSearchSpaceLog2(t *testing.T) {
	c := topology.ComplexOf(topology.Simplex{v(0, "a"), v(1, "b"), v(2, "c")})
	a := annotated(c, map[topology.Vertex][]string{
		v(0, "a"): {"0", "1"},      // 1 bit
		v(1, "b"): {"0", "1", "2"}, // log2 3 bits
		v(2, "c"): {"0"},           // forced: 0 bits
	})
	got := SearchSpaceLog2(a)
	want := 1 + 1.584962500721156
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SearchSpaceLog2 = %v, want %v", got, want)
	}
	empty := annotated(topology.NewComplex(), nil)
	if got := SearchSpaceLog2(empty); got != 0 {
		t.Fatalf("SearchSpaceLog2(empty) = %v, want 0", got)
	}
}
