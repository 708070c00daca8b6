package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own side of the call. Spans of one request or one replayed
// build share a trace id; parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`

	tr *tracer
}

// tracer keeps spans in memory; write dumps them once the run ends. It
// is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (nil: a new trace).
func (t *tracer) begin(parent *span, name string) *span {
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &span{ID: t.next, Name: name, Start: start, tr: t}
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	} else {
		s.Trace = s.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	end := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.mu.Lock()
	s.End = end
	s.tr.mu.Unlock()
	return time.Duration(end - s.Start)
}

// around runs f inside a span named name under parent.
func (t *tracer) around(parent *span, name string, f func()) {
	s := t.begin(parent, name)
	f()
	s.end()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, *s)
		}
	}
	return out
}

// write dumps every closed span as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[p.ID] = append(kids[p.ID], iv{lo, hi})
			}
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerStats aggregates self times by span name.
type layerStats struct {
	total time.Duration
	each  []float64 // per-span self time, seconds
}

// byName sums self times per span name over the spans in trace roots
// (every trace when roots is nil).
func byName(spans []span, roots map[uint64]bool) map[string]*layerStats {
	self := selfTimes(spans)
	out := map[string]*layerStats{}
	for _, s := range spans {
		if roots != nil && !roots[s.Trace] {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := self[s.ID]
		ls.total += d
		ls.each = append(ls.each, d.Seconds())
	}
	return out
}
