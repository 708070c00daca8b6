// Package obs is the observability substrate for long-running
// enumerations: named atomic counters, stage timers, a periodic progress
// reporter with rate/ETA, expvar registration, an optional
// pprof+expvar debug server, and a JSON run report. Tool wires them
// around one run for the offline commands.
//
// Everything is off by default and nil-safe: a nil *Tracker hands out nil
// *Counter and *Stage values whose methods no-op, so instrumented hot
// paths cost a single predictable nil check when observability is
// disabled. Counters are atomic and intended to be bumped once per shard
// or chunk, not once per element, keeping the instrumented overhead
// within the ≤2% budget the benchmarks pin.
//
// The long-running entry points (the round-complex construction,
// the crash-schedule enumerator, the decision search, and the homology
// engine) pick their Tracker out of the context.Context that also carries
// their cancellation signal; see WithTracker and FromContext.
package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named atomic counter. The zero value is ready to use; a
// nil Counter ignores Add and reads as zero, so callers resolve counters
// once (outside their hot loop) and bump them unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (zero on a nil receiver).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// goal is an optional target for a counter, enabling percent-done and ETA
// in the progress reporter.
type goal struct {
	total uint64
}

// Tracker owns a run's counters and stage timings. All methods are safe
// for concurrent use and safe on a nil receiver (returning nil
// sub-objects), so instrumentation can be threaded unconditionally and
// enabled only when a Tracker is installed.
type Tracker struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	goals    map[string]goal
	stages   []*Stage
}

// NewTracker returns an empty tracker whose wall clock starts now.
func NewTracker() *Tracker {
	return &Tracker{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		goals:    make(map[string]goal),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// tracker returns a nil counter (whose Add no-ops).
func (t *Tracker) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// SetGoal declares the expected final value of the named counter; the
// progress reporter then renders percent done and an ETA for it. Safe on
// a nil receiver.
func (t *Tracker) SetGoal(name string, total uint64) {
	if t == nil {
		return
	}
	t.Counter(name) // ensure it exists and is ordered
	t.mu.Lock()
	t.goals[name] = goal{total: total}
	t.mu.Unlock()
}

// Counters returns a name-sorted snapshot of every counter.
func (t *Tracker) Counters() map[string]uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.counters))
	for name, c := range t.counters {
		out[name] = c.Load()
	}
	return out
}

// Stage opens a named stage timer and returns it; call End (or Done) to
// close it. Stages may nest and overlap freely; the report lists them in
// opening order. A nil tracker returns a nil stage.
func (t *Tracker) Stage(name string) *Stage {
	if t == nil {
		return nil
	}
	s := &Stage{name: name, start: time.Now()}
	t.mu.Lock()
	t.stages = append(t.stages, s)
	t.mu.Unlock()
	return s
}

// currentStage returns the name of the most recently opened unfinished
// stage, or "".
func (t *Tracker) currentStage() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.stages) - 1; i >= 0; i-- {
		if !t.stages[i].ended.Load() {
			return t.stages[i].name
		}
	}
	return ""
}

// Stage is one named, timed phase of a run, with optional integer
// metadata (sizes, facet counts, cache rates) attached for the report.
type Stage struct {
	name  string
	start time.Time
	ended atomic.Bool
	dur   time.Duration

	mu   sync.Mutex
	meta map[string]int64
}

// Meta attaches an integer datum to the stage (last write per key wins)
// and returns the stage for chaining. Safe on a nil receiver.
func (s *Stage) Meta(key string, v int64) *Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.meta == nil {
		s.meta = make(map[string]int64)
	}
	s.meta[key] = v
	s.mu.Unlock()
	return s
}

// End closes the stage, fixing its duration; later calls are no-ops.
// Safe on a nil receiver.
func (s *Stage) End() {
	if s == nil {
		return
	}
	if s.ended.CompareAndSwap(false, true) {
		s.dur = time.Since(s.start)
	}
}

// Elapsed returns the stage duration: final if ended, running otherwise.
func (s *Stage) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended.Load() {
		return s.dur
	}
	return time.Since(s.start)
}

// Progress is a point-in-time view of a tracker: wall-clock elapsed
// time, the most recent open stage, and every counter value. It is the
// progress payload the job API serves from GET /v1/jobs/{id} and streams
// over SSE. (Snapshot, in report.go, is the heavier end-of-run report.)
type Progress struct {
	ElapsedMS int64             `json:"elapsed_ms"`
	Stage     string            `json:"stage,omitempty"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
}

// Progress captures the tracker's current state. Safe on a nil receiver
// (returns the zero Progress), so callers can snapshot a job that has no
// tracker attached yet.
func (t *Tracker) Progress() Progress {
	if t == nil {
		return Progress{}
	}
	return Progress{
		ElapsedMS: time.Since(t.start).Milliseconds(),
		Stage:     t.currentStage(),
		Counters:  t.Counters(),
	}
}

// PublishExpvar registers the tracker's counters (and stage timings, in
// milliseconds) under the given expvar names. Registration is skipped if
// the name is already taken, so repeated calls — or several trackers in
// one process, as in tests — never panic. Safe on a nil receiver.
func (t *Tracker) PublishExpvar(countersName, stagesName string) {
	if t == nil {
		return
	}
	if countersName != "" && expvar.Get(countersName) == nil {
		expvar.Publish(countersName, expvar.Func(func() interface{} {
			return t.Counters()
		}))
	}
	if stagesName != "" && expvar.Get(stagesName) == nil {
		expvar.Publish(stagesName, expvar.Func(func() interface{} {
			t.mu.Lock()
			defer t.mu.Unlock()
			out := make(map[string]float64, len(t.stages))
			for _, s := range t.stages {
				out[s.name] = float64(s.Elapsed().Microseconds()) / 1000
			}
			return out
		}))
	}
}

// sortedNames returns the counter names in lexicographic order, for
// stable progress lines and reports.
func (t *Tracker) sortedNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.counters))
	for name := range t.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
