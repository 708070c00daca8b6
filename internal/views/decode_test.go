package views

import (
	"testing"
	"testing/quick"
)

func TestDecodeRoundTripInitial(t *testing.T) {
	v := Initial(3, "hello")
	back, err := Decode(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Encode() != v.Encode() {
		t.Fatalf("round trip: %q vs %q", back.Encode(), v.Encode())
	}
}

func TestDecodeRoundTripNested(t *testing.T) {
	a, b, c := Initial(0, "x"), Initial(1, "y"), Initial(2, "z")
	r1 := heard(0, a, b)
	r1b := heard(2, b, c)
	r2 := heard(0, r1, r1b)
	back, err := Decode(r2.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Encode() != r2.Encode() {
		t.Fatalf("round trip: %q vs %q", back.Encode(), r2.Encode())
	}
	if back.Round != 2 || len(back.ValuesSeen()) != 3 {
		t.Fatalf("structure lost: round=%d values=%v", back.Round, back.ValuesSeen())
	}
}

// TestDecodeRoundTripMeta round-trips a view with per-sender annotations.
func TestDecodeRoundTripMeta(t *testing.T) {
	a, b := Initial(0, "u"), Initial(1, "w")
	v := NewHeard([]*View{a, b}, []string{"2", "1"}).View(0)
	back, err := Decode(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Encode() != v.Encode() {
		t.Fatalf("round trip: %q vs %q", back.Encode(), v.Encode())
	}
	if n, ok := back.Note(1); !ok || n != "1" {
		t.Fatalf("annotation lost: %q, %v", n, ok)
	}
}

// TestDecodeRejectsGarbage covers malformed input and well-formed but
// non-canonical spellings of a view, which would otherwise let a label
// name an existing local state a second way.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "x", "3", "3[", "3[0:(1=a]", "3[zz:(1=a)]", "3[0:(1=a)extra]",
		"1=a trailing)",
		// Non-canonical: unsorted senders, a repeated sender, a leading
		// zero.
		"0[1:(1=b);0:(0=a)]", "0[0:(0=a);0:(0=b)]", "00=a",
		// A sender carrying another process's view, a signed sender, an
		// empty annotation, and reserved characters in values.
		"0[1:(0=a)]", "0[+0:(0=a)]", "0[0@:(0=a)]", "0[0@1@2:(0=a)]",
		"0=a[b", "0=a:b", "0=a=b",
	} {
		if v, err := Decode(bad); err == nil {
			t.Fatalf("%q accepted as %q", bad, v.Encode())
		}
	}
}

// TestDecodeRoundTripQuick round-trips random small view structures.
func TestDecodeRoundTripQuick(t *testing.T) {
	prop := func(inputs [3]uint8, include [3]bool, withMeta bool) bool {
		var from []*View
		for i := 0; i < 3; i++ {
			if include[i] || i == 0 {
				from = append(from, Initial(i, string(rune('a'+inputs[i]%5))))
			}
		}
		var notes []string
		if withMeta {
			notes = make([]string, len(from))
			notes[0] = "3"
		}
		v := NewHeard(from, notes).View(0)
		back, err := Decode(v.Encode())
		return err == nil && back.Encode() == v.Encode()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode checks that Decode accepts canonical encodings only: whenever
// it succeeds, the view it returns encodes back to exactly its input.
func FuzzDecode(f *testing.F) {
	for _, s := range []string{
		"0=a", "12=", "0[0:(0=a);1:(1=b)]", "0[0@2:(0=a);1@2:(1=b)]",
		"0[0:(0[0:(0=a);1:(1=b)]);1:(1[0:(0=a);1:(1=b)])]",
		"0[1:(1=b);0:(0=a)]", "0[0:(0=a);0:(0=b)]", "00=a", "0[]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Decode(s)
		if err != nil {
			return
		}
		if got := v.Encode(); got != s {
			t.Fatalf("Decode(%q) re-encodes as %q", s, got)
		}
	})
}
