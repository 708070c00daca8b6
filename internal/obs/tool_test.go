package obs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestToolRunExitCodes: 0 for a clean run, 1 for an error, and 130 for a
// run its own SIGINT cancels, whose report is still written and marked
// interrupted.
func TestToolRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	tool := &Tool{name: "obs-test"}
	if code := tool.Run(false, func(context.Context) error { return nil }); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	if code := tool.Run(false, func(context.Context) error { return errors.New("boom") }); code != 1 {
		t.Fatalf("failed run exited %d", code)
	}

	tool.report = filepath.Join(dir, "report.json")
	code := tool.Run(true, func(ctx context.Context) error {
		FromContext(ctx).Stage("before the signal").End()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("SIGINT did not cancel the run's context")
		}
	})
	if code != 130 {
		t.Fatalf("interrupted run exited %d", code)
	}
	data, err := os.ReadFile(tool.report)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "obs-test" || !rep.Interrupted || !rep.Deep {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Name != "before the signal" {
		t.Fatalf("report stages: %+v", rep.Stages)
	}
}
