package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pseudosphere/internal/experiments"
	"pseudosphere/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.txt from this run")

// TestExperimentsGolden pins the whole default run byte for byte: every
// table row and the homology cache line. A fresh cached engine makes the
// cache line independent of the tests that ran before. Rewrite the file
// with go test ./cmd/experiments -run TestExperimentsGolden -update.
func TestExperimentsGolden(t *testing.T) {
	experiments.ConfigureEngine(true)
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "", false); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/experiments.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "E1", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1") || !strings.Contains(out, "ALL ROWS MATCH") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Contains(out, "E2") {
		t.Fatal("unrequested experiment ran")
	}
}

func TestRunMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "E2", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "### E2") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "E99", false); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, &buf, "E1", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestPartialReportWellFormed mirrors what obs.Tool.Run does after an
// interrupted run: snapshot the tracker mid-run and check the report both
// round-trips as JSON and records the truncation.
func TestPartialReportWellFormed(t *testing.T) {
	tracker := obs.NewTracker()
	ctx, cancel := context.WithCancel(obs.WithTracker(context.Background(), tracker))
	var buf bytes.Buffer
	if err := run(ctx, &buf, "E1", false); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := run(ctx, &buf, "E2", false); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	rep := tracker.Snapshot("experiments")
	rep.Interrupted = true
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed obs.Report
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("partial report does not parse: %v", err)
	}
	if !parsed.Interrupted {
		t.Fatal("interrupted flag lost in round trip")
	}
	if len(parsed.Stages) == 0 || parsed.Stages[0].Name != "E1" {
		t.Fatalf("expected the completed E1 stage in the partial report, got %+v", parsed.Stages)
	}
}
