// Package views implements full-information local states. In every model
// the paper considers (Section 4), a process's local state is its input
// value plus the sequence of messages received so far, and the
// full-information protocol sends the entire local state in every message.
// A View is therefore a recursive structure: a round-r view is the
// process's id together with a Heard set, the round-(r-1) views of every
// sender it heard from during round r.
//
// Processes that received the same messages share everything but their
// own id, so a Heard set is built once, immutable, and shared by every
// process that received it: a round's operator builds each distinct heard
// set once (see HeardSets) and hands it to each receiver through
// Heard.View.
//
// Views have canonical string encodings, which the model packages use as
// vertex labels: two global states share a vertex exactly when a process
// has the same local state in both, which is the paper's notion of
// similarity. A heard set's encoding body is appended into one buffer
// when the set is built, and a view's label when the view is built, so
// Encode only reads and nothing ever writes to a shared view. Decode is
// Encode's inverse and accepts canonical encodings only.
package views

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// View is a full-information local state. Build one with Initial or
// Heard.View; a view never changes after it is built, so views are safe
// for concurrent read.
//
// A round-0 view is just the process's input and encodes as "p=input". A
// round-r view (r >= 1) records the heard set of round r and encodes as
// "p[" + the heard set's body + "]".
type View struct {
	P     int    // process id
	Input string // input value (meaningful at round 0 and preserved upward)
	Round int    // number of completed rounds

	heard *Heard // round-r messages; nil at round 0
	enc   string // canonical encoding, built with the view
}

// Initial returns the round-0 view of process p with the given input.
func Initial(p int, input string) *View {
	return &View{P: p, Input: input, enc: strconv.Itoa(p) + "=" + input}
}

// Heard is the set of messages one process received in a round: the
// senders' previous-round views in ascending process order, each with an
// optional annotation (e.g. the microround of the last message received
// from that sender in the semi-synchronous model). It is immutable once
// built, and every process that received the same messages shares it.
//
// Its body, the entries "s[@note]:(enc)" joined by ';', is encoded when
// the set is built.
type Heard struct {
	from  []*View
	notes []string // nil, or one annotation per sender ("" for none)
	round int      // one more than the latest sender round
	body  string
}

// NewHeard returns the heard set of the given previous-round views, one
// per sender, in strictly ascending process order; notes is nil or holds
// one annotation per view, "" marking a sender without one. NewHeard
// keeps both slices, so the caller must not modify them afterwards. The
// paper's models always include the receiver's own view; NewHeard does
// not enforce this so that adversarial variants can be modeled.
func NewHeard(from []*View, notes []string) *Heard {
	if notes != nil && len(notes) != len(from) {
		panic(fmt.Sprintf("views: %d annotations for %d senders", len(notes), len(from)))
	}
	h := &Heard{from: from, notes: notes, round: 1}
	size := 0
	for i, v := range from {
		if i > 0 && from[i-1].P >= v.P {
			panic(fmt.Sprintf("views: heard senders %d, %d not strictly ascending", from[i-1].P, v.P))
		}
		h.round = max(h.round, v.Round+1)
		size += digits(v.P) + len(":()") + len(v.enc) + len(";")
		if notes != nil && notes[i] != "" {
			size += len("@") + len(notes[i])
		}
	}
	var b strings.Builder
	b.Grow(size)
	var id [20]byte
	for i, v := range from {
		if i > 0 {
			b.WriteByte(';')
		}
		b.Write(strconv.AppendInt(id[:0], int64(v.P), 10))
		if notes != nil && notes[i] != "" {
			b.WriteByte('@')
			b.WriteString(notes[i])
		}
		b.WriteString(":(")
		b.WriteString(v.enc)
		b.WriteByte(')')
	}
	h.body = b.String()
	return h
}

// View returns the view of process p after receiving h: its input is the
// input of p's own view in h, if p heard itself.
func (h *Heard) View(p int) *View {
	v := &View{P: p, Round: h.round, heard: h, enc: strconv.Itoa(p) + "[" + h.body + "]"}
	if i := h.index(p); i >= 0 {
		v.Input = h.from[i].Input
	}
	return v
}

// index returns the position of sender q in h, or -1.
func (h *Heard) index(q int) int {
	i := sort.Search(len(h.from), func(i int) bool { return h.from[i].P >= q })
	if i < len(h.from) && h.from[i].P == q {
		return i
	}
	return -1
}

// digits returns the length of the decimal form of p.
func digits(p int) int {
	n := 1
	if p < 0 {
		n, p = 2, -p
	}
	for ; p >= 10; p /= 10 {
		n++
	}
	return n
}

// Encode returns the canonical encoding of the view. Encodings are
// injective on views: equal strings imply structurally equal views.
func (v *View) Encode() string { return v.enc }

// Note returns the annotation the view's final round attached to the
// message from sender, and whether there is one.
func (v *View) Note(sender int) (string, bool) {
	if v.heard == nil || v.heard.notes == nil {
		return "", false
	}
	i := v.heard.index(sender)
	if i < 0 || v.heard.notes[i] == "" {
		return "", false
	}
	return v.heard.notes[i], true
}

// ValuesSeen returns the sorted set of input values visible in the view:
// the inputs of every process whose round-0 view is reachable through the
// heard-from structure (always including the process's own input at round
// 0).
func (v *View) ValuesSeen() []string {
	set := make(map[string]bool)
	v.collectValues(set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (v *View) collectValues(into map[string]bool) {
	if v.heard == nil {
		into[v.Input] = true
		return
	}
	for _, h := range v.heard.from {
		h.collectValues(into)
	}
}

// HeardIDs returns the sorted sender set of the final round of the view.
func (v *View) HeardIDs() []int {
	if v.heard == nil {
		return []int{}
	}
	out := make([]int, len(v.heard.from))
	for i, h := range v.heard.from {
		out[i] = h.P
	}
	return out
}

// String is Encode, for debugging.
func (v *View) String() string { return v.enc }

// reserved lists the characters the encoding uses as delimiters.
const reserved = "=[]();:@"

// CheckValue reports whether s can appear in an encoding as an input value
// or an annotation: it must not contain any of the delimiters '=', '[',
// ']', '(', ')', ';', ':' or '@'. A value that contains one can make two
// distinct views encode alike, so callers that build views from untrusted
// values reject the ones CheckValue refuses.
func CheckValue(s string) error {
	if i := strings.IndexAny(s, reserved); i >= 0 {
		return fmt.Errorf("views: value %q contains the reserved character %q", s, s[i])
	}
	return nil
}

// HeardSets builds the heard sets of one round over the participants'
// current views, each distinct set once. A set is named by a bitmask over
// positions of cur, which must be in strictly ascending process order and
// hold at most 64 views. A HeardSets is for one goroutine; the sets it
// returns are safe for concurrent read.
type HeardSets struct {
	cur  []*View
	sets map[uint64]*Heard
}

// NewHeardSets returns an empty set table over cur.
func NewHeardSets(cur []*View) *HeardSets {
	if len(cur) > 64 {
		panic(fmt.Sprintf("views: %d participants exceed a 64-bit heard mask", len(cur)))
	}
	return &HeardSets{cur: cur, sets: make(map[uint64]*Heard)}
}

// Of returns the heard set of the views of cur at the positions set in
// mask, building it on first use.
func (s *HeardSets) Of(mask uint64) *Heard {
	if h, ok := s.sets[mask]; ok {
		return h
	}
	from := make([]*View, 0, bits.OnesCount64(mask))
	for i, v := range s.cur {
		if mask&(1<<i) != 0 {
			from = append(from, v)
		}
	}
	h := NewHeard(from, nil)
	s.sets[mask] = h
	return h
}
