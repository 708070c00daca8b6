package views

import (
	"fmt"
	"strconv"
	"strings"
)

// Decode parses a canonical view encoding produced by Encode and returns
// an error for anything else: Decode(s) succeeds exactly when s is the
// encoding of the view it returns, so Decode(s).Encode() == s. Input
// values and annotations must pass CheckValue, senders must be strictly
// ascending, each sender's entry must hold that sender's own view, and
// numbers must be written without sign or leading zeros. A label that
// decodes therefore names one local state one way, and a shard frame or
// checkpoint record cannot spell an existing vertex a second time.
func Decode(s string) (*View, error) {
	v, rest, err := parseView(s)
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("views: trailing input %q", rest)
	}
	if v.enc != s {
		return nil, fmt.Errorf("views: %q is not canonical (the canonical form is %q)", s, v.enc)
	}
	return v, nil
}

// parseView parses one view from the front of s.
func parseView(s string) (*View, string, error) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return nil, "", fmt.Errorf("views: expected process id at %q", s)
	}
	p, err := strconv.Atoi(s[:i])
	if err != nil {
		return nil, "", err
	}
	if i >= len(s) {
		return nil, "", fmt.Errorf("views: truncated view after id %d", p)
	}
	switch s[i] {
	case '=':
		// Round-0 view: input runs to the first structural delimiter of
		// the ENCLOSING view (')' or ';') or end of string.
		j := i + 1
		for j < len(s) && s[j] != ')' && s[j] != ';' {
			j++
		}
		if err := CheckValue(s[i+1 : j]); err != nil {
			return nil, "", err
		}
		return Initial(p, s[i+1:j]), s[j:], nil
	case '[':
		body, rest, err := balanced(s[i:], '[', ']')
		if err != nil {
			return nil, "", err
		}
		var from []*View
		var notes []string
		for body != "" {
			entry := body
			// Entry: sender[@note]:(view). The separator is the first
			// colon: the head holds only digits and an optional "@note".
			colon := strings.IndexByte(entry, ':')
			if colon < 0 {
				return nil, "", fmt.Errorf("views: malformed entry %q", entry)
			}
			head := entry[:colon]
			senderStr, note, _ := strings.Cut(head, "@")
			sender, err := strconv.Atoi(senderStr)
			if err != nil {
				return nil, "", fmt.Errorf("views: bad sender %q", head)
			}
			if err := CheckValue(note); err != nil {
				return nil, "", err
			}
			if colon+1 >= len(entry) || entry[colon+1] != '(' {
				return nil, "", fmt.Errorf("views: expected '(' in entry %q", entry)
			}
			inner, after, err := balanced(entry[colon+1:], '(', ')')
			if err != nil {
				return nil, "", err
			}
			sub, leftover, err := parseView(inner)
			if err != nil {
				return nil, "", err
			}
			if leftover != "" {
				return nil, "", fmt.Errorf("views: trailing %q inside entry", leftover)
			}
			if sub.P != sender {
				return nil, "", fmt.Errorf("views: sender %d carries the view of process %d", sender, sub.P)
			}
			if n := len(from); n > 0 && from[n-1].P >= sender {
				return nil, "", fmt.Errorf("views: sender %d follows sender %d", sender, from[n-1].P)
			}
			from = append(from, sub)
			notes = append(notes, note)
			if after == "" {
				body = ""
			} else if after[0] == ';' {
				body = after[1:]
			} else {
				return nil, "", fmt.Errorf("views: expected ';' between entries, got %q", after)
			}
		}
		return NewHeard(from, notes).View(p), rest, nil
	default:
		return nil, "", fmt.Errorf("views: unexpected %q after id %d", s[i], p)
	}
}

// balanced consumes a balanced open...close group from the front of s
// (s[0] must be open) and returns the interior and the remainder.
func balanced(s string, open, close byte) (string, string, error) {
	if len(s) == 0 || s[0] != open {
		return "", "", fmt.Errorf("views: expected %q at %q", string(open), s)
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return s[1:i], s[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("views: unbalanced %q in %q", string(open), s)
}
