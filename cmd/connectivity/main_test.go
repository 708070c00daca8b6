package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAllModels(t *testing.T) {
	tests := []struct {
		name string
		cfg  config
		want string
	}{
		{
			name: "async",
			cfg:  config{model: "async", n: 2, m: -1, f: 1, r: 1},
			want: "A^1(S^2), n=2 f=1",
		},
		{
			name: "sync",
			cfg:  config{model: "sync", n: 2, m: -1, k: 1, r: 1},
			want: "S^1(S^2), n=2 k=1",
		},
		{
			name: "semisync",
			cfg:  config{model: "semisync", n: 2, m: -1, k: 1, r: 1, c1: 1, c2: 2, d: 2},
			want: "M^1(S^2), n=2 k=1 p=2",
		},
		{
			name: "async cached",
			cfg:  config{model: "async", n: 2, m: -1, f: 1, r: 1, cache: true},
			want: "cache hits=1 misses=1",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, tt.cfg); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, tt.want) {
				t.Fatalf("output missing %q:\n%s", tt.want, out)
			}
			if !strings.Contains(out, "matches the paper") {
				t.Fatalf("expected a matching verdict:\n%s", out)
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, config{model: "quantum", n: 2, m: -1}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run(context.Background(), &buf, config{model: "async", n: 1, m: 3, f: 1, r: 1}); err == nil {
		t.Fatal("m > n accepted")
	}
}

// TestRunTableModels: the table presets resolve per-dimension instances
// through the registry; custom keeps its Lemma 17 prediction column.
func TestRunTableModels(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, config{model: "custom", n: 2, m: -1, k: 1, r: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"C^1(S^m'), custom model (per-round budget k=1, no cumulative cap)",
		"below rk+k: no prediction",
		"matches the paper",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("custom table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := run(context.Background(), &buf, config{model: "iis", n: 2, m: -1, r: 1}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "IIS^1(S^m')") || !strings.Contains(out, "no prediction") {
		t.Fatalf("iis table output:\n%s", out)
	}
}

// TestRunSpecFile: -spec tabulates an on-disk adversary document through
// the same parser and registry compilation the server's POST form uses.
func TestRunSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adversary.json")
	const doc = `{"processes": 3, "rounds": 2, "adversary": {"kind": "graphs",
		"graphs": [{"edges": [[0,1],[1,2],[2,0]]}, {"edges": [[1,0],[2,1],[0,2]]}],
		"schedule": [[0,1],[0]]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, config{spec: path, m: -1, cache: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The header carries the canonical key: the CLI and the service share
	// one identity for this adversary.
	if !strings.Contains(out, "model=spec|n=2|m=2|adv=graphs:") {
		t.Fatalf("spec table header missing the canonical key:\n%s", out)
	}
	// One row per participating face dimension 0..2.
	if rows := strings.Count(out, "\n"); rows < 5 {
		t.Fatalf("expected header + 3 table rows:\n%s", out)
	}

	// Preset-form specs tabulate too, overriding m per row.
	preset := filepath.Join(t.TempDir(), "sync.json")
	if err := os.WriteFile(preset, []byte(`{"name": "sync", "params": {"n": 2, "k": 1, "r": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(context.Background(), &buf, config{spec: preset, m: -1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "model=sync|n=2|m=2|k=1|r=1") {
		t.Fatalf("preset spec header missing the canonical key:\n%s", buf.String())
	}

	// A malformed document is a named, typed rejection.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"processes": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), &buf, config{spec: bad, m: -1})
	if err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("bad spec error = %v, want the file named", err)
	}
}
