package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// StageReport is one stage's line in a run report.
type StageReport struct {
	Name   string           `json:"name"`
	Millis float64          `json:"millis"`
	Meta   map[string]int64 `json:"meta,omitempty"`
}

// Report is the machine-readable outcome of a run: per-stage wall time,
// final counter values, and enough machine context to compare runs. The
// cmd tools write it with -report; an interrupted run (SIGINT) still
// writes the stages and counters accumulated so far with Interrupted set,
// so a partial -deep run leaves a well-formed record behind.
type Report struct {
	Tool        string            `json:"tool"`
	GoOS        string            `json:"goos"`
	GoArch      string            `json:"goarch"`
	NumCPU      int               `json:"numcpu"`
	Deep        bool              `json:"deep,omitempty"`
	Interrupted bool              `json:"interrupted,omitempty"`
	WallMillis  float64           `json:"wall_millis"`
	Stages      []StageReport     `json:"stages,omitempty"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
	Notes       map[string]string `json:"notes,omitempty"`
}

// Snapshot assembles a report from the tracker's current state. Open
// stages report their running elapsed time, so a snapshot taken after
// cancellation reflects the truncated run. Safe on a nil receiver, which
// yields a report with machine context only.
func (t *Tracker) Snapshot(tool string) *Report {
	r := &Report{
		Tool:   tool,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	if t == nil {
		return r
	}
	r.WallMillis = millis(time.Since(t.start))
	r.Counters = t.Counters()
	if len(r.Counters) == 0 {
		r.Counters = nil
	}
	t.mu.Lock()
	for _, s := range t.stages {
		sr := StageReport{Name: s.name, Millis: millis(s.Elapsed())}
		s.mu.Lock()
		if len(s.meta) > 0 {
			sr.Meta = make(map[string]int64, len(s.meta))
			for k, v := range s.meta {
				sr.Meta[k] = v
			}
		}
		s.mu.Unlock()
		r.Stages = append(r.Stages, sr)
	}
	t.mu.Unlock()
	return r
}

// WriteFile marshals the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
