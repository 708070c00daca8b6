package views

import (
	"testing"
	"testing/quick"
)

// heard builds the round-r+1 view of process p hearing the given views,
// which must be in ascending process order.
func heard(p int, from ...*View) *View { return NewHeard(from, nil).View(p) }

func TestInitialView(t *testing.T) {
	v := Initial(2, "x")
	if v.Encode() != "2=x" {
		t.Fatalf("encode = %q", v.Encode())
	}
	vals := v.ValuesSeen()
	if len(vals) != 1 || vals[0] != "x" {
		t.Fatalf("values = %v", vals)
	}
}

// TestNextView checks the view a process holds after receiving a heard
// set: one round later, with its own input preserved.
func TestNextView(t *testing.T) {
	a, b := Initial(0, "u"), Initial(1, "w")
	next := heard(0, a, b)
	if next.Round != 1 {
		t.Fatalf("round = %d", next.Round)
	}
	if next.Input != "u" {
		t.Fatalf("input = %q (must be preserved from the self view)", next.Input)
	}
	vals := next.ValuesSeen()
	if len(vals) != 2 || vals[0] != "u" || vals[1] != "w" {
		t.Fatalf("values = %v", vals)
	}
	ids := next.HeardIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("heard = %v", ids)
	}
}

// TestHeardSetShared checks that every receiver of one heard set shares
// its body and differs only in its own id.
func TestHeardSetShared(t *testing.T) {
	h := NewHeard([]*View{Initial(0, "a"), Initial(1, "b")}, nil)
	v0, v1 := h.View(0), h.View(1)
	if v0.Encode() != "0[0:(0=a);1:(1=b)]" || v1.Encode() != "1[0:(0=a);1:(1=b)]" {
		t.Fatalf("encodings %q, %q", v0.Encode(), v1.Encode())
	}
	if v0.Input != "a" || v1.Input != "b" {
		t.Fatalf("inputs %q, %q", v0.Input, v1.Input)
	}
	if outsider := h.View(2); outsider.Input != "" || outsider.Encode() != "2[0:(0=a);1:(1=b)]" {
		t.Fatalf("non-member view: input %q, encoding %q", outsider.Input, outsider.Encode())
	}
}

// TestGoldenEncodings pins literal labels: every CanonicalHash pin, stored
// response and checkpoint record depends on these bytes.
func TestGoldenEncodings(t *testing.T) {
	a, b := Initial(0, "a"), Initial(1, "b")
	semi := NewHeard([]*View{a, b}, []string{"2", "2"})
	r1 := NewHeard([]*View{a, b}, nil)
	r2 := NewHeard([]*View{r1.View(0), r1.View(1)}, nil)
	partial := NewHeard([]*View{a, b}, []string{"", "1"})
	for _, tc := range []struct {
		v    *View
		want string
	}{
		{a, "0=a"},
		{Initial(12, ""), "12="},
		{semi.View(0), "0[0@2:(0=a);1@2:(1=b)]"},
		{semi.View(1), "1[0@2:(0=a);1@2:(1=b)]"},
		{partial.View(1), "1[0:(0=a);1@1:(1=b)]"},
		{r2.View(0), "0[0:(0[0:(0=a);1:(1=b)]);1:(1[0:(0=a);1:(1=b)])]"},
	} {
		if got := tc.v.Encode(); got != tc.want {
			t.Errorf("encoding %q, want %q", got, tc.want)
		}
		if tc.v.String() != tc.want {
			t.Errorf("String() = %q, want %q", tc.v.String(), tc.want)
		}
	}
	if r2.View(0).Round != 2 {
		t.Fatalf("nested round = %d, want 2", r2.View(0).Round)
	}
}

func TestNoteAccessor(t *testing.T) {
	a, b := Initial(0, "a"), Initial(1, "b")
	v := NewHeard([]*View{a, b}, []string{"", "3"}).View(0)
	if n, ok := v.Note(1); !ok || n != "3" {
		t.Fatalf("Note(1) = %q, %v", n, ok)
	}
	for _, q := range []int{0, 2} {
		if n, ok := v.Note(q); ok {
			t.Fatalf("Note(%d) = %q, want none", q, n)
		}
	}
	if _, ok := heard(0, a, b).Note(0); ok {
		t.Fatal("unannotated view reports an annotation")
	}
	if _, ok := a.Note(0); ok {
		t.Fatal("round-0 view reports an annotation")
	}
}

func TestNewHeardRejectsUnsortedSenders(t *testing.T) {
	for _, from := range [][]*View{
		{Initial(1, "b"), Initial(0, "a")},
		{Initial(0, "a"), Initial(0, "b")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHeard accepted senders %v, %v", from[0], from[1])
				}
			}()
			NewHeard(from, nil)
		}()
	}
}

func TestHeardSetsShareSets(t *testing.T) {
	cur := []*View{Initial(0, "a"), Initial(1, "b"), Initial(3, "d")}
	hs := NewHeardSets(cur)
	h := hs.Of(0b101)
	if hs.Of(0b101) != h {
		t.Fatal("one mask built two heard sets")
	}
	if v := h.View(3); v.Encode() != "3[0:(0=a);3:(3=d)]" || v.Input != "d" {
		t.Fatalf("view %q input %q", v.Encode(), v.Input)
	}
	if v := hs.Of(0b111).View(1); v.Encode() != "1[0:(0=a);1:(1=b);3:(3=d)]" {
		t.Fatalf("view %q", v.Encode())
	}
}

func TestCheckValue(t *testing.T) {
	for _, ok := range []string{"", "a", "hello world", "0,1", "x|y"} {
		if err := CheckValue(ok); err != nil {
			t.Errorf("CheckValue(%q) = %v", ok, err)
		}
	}
	for _, c := range reserved {
		if CheckValue("a"+string(c)+"b") == nil {
			t.Errorf("CheckValue accepted %q", c)
		}
	}
}

func TestEncodeDistinguishesStructures(t *testing.T) {
	a, b := Initial(0, "u"), Initial(1, "w")
	v1 := heard(0, a, b)
	v2 := heard(0, a)
	if v1.Encode() == v2.Encode() {
		t.Fatal("different heard sets must encode differently")
	}
	v3 := heard(0, a, Initial(1, "z"))
	if v1.Encode() == v3.Encode() {
		t.Fatal("different predecessor inputs must encode differently")
	}
}

// TestMetaAffectsEncoding checks that per-sender annotations are part of
// the encoding.
func TestMetaAffectsEncoding(t *testing.T) {
	a, b := Initial(0, "u"), Initial(1, "w")
	v1 := heard(0, a, b)
	v2 := NewHeard([]*View{a, b}, []string{"", "3"}).View(0)
	if v1.Encode() == v2.Encode() {
		t.Fatal("meta annotations must affect the encoding")
	}
}

func TestMultiRoundValues(t *testing.T) {
	a, b, c := Initial(0, "0"), Initial(1, "1"), Initial(2, "2")
	r1a := heard(0, a, b)
	r1c := heard(2, c)
	r2 := heard(0, r1a, r1c)
	if r2.Round != 2 {
		t.Fatalf("round = %d", r2.Round)
	}
	vals := r2.ValuesSeen()
	if len(vals) != 3 {
		t.Fatalf("values = %v, want all three inputs", vals)
	}
}

// TestEncodeInjectiveQuick checks on random two-process view structures
// that distinct structures encode distinctly.
func TestEncodeInjectiveQuick(t *testing.T) {
	build := func(in0, in1 uint8, hear0, hear1 bool) *View {
		from := []*View{Initial(0, string(rune('a'+in0%3)))}
		if hear0 {
			from = append(from, Initial(1, string(rune('a'+in1%3))))
		}
		var notes []string
		if hear1 {
			notes = make([]string, len(from))
			notes[0] = "1"
		}
		return NewHeard(from, notes).View(0)
	}
	prop := func(x, y [4]uint8) bool {
		v1 := build(x[0], x[1], x[2]%2 == 0, x[3]%2 == 0)
		v2 := build(y[0], y[1], y[2]%2 == 0, y[3]%2 == 0)
		same := x[0]%3 == y[0]%3 &&
			(x[2]%2 == y[2]%2) &&
			(x[3]%2 == y[3]%2) &&
			(x[2]%2 != 0 || x[1]%3 == y[1]%3)
		return same == (v1.Encode() == v2.Encode())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
