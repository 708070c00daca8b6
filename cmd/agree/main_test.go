package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSyncWithCrash(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "sync", "flood", "0,1,2", 1, 1, "0@1:1", 0, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "P0: input 0, crashed") {
		t.Fatalf("missing crash line:\n%s", out)
	}
	if !strings.Contains(out, "k-set agreement with k=1: satisfied") {
		t.Fatalf("missing verdict:\n%s", out)
	}
}

func TestRunAsyncImpossibleRejected(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "async", "flood", "0,1,2", 1, 1, "", 0, 1, 2, 2)
	if err == nil || !strings.Contains(err.Error(), "Corollary 13") {
		t.Fatalf("err = %v, want Corollary 13 rejection", err)
	}
}

func TestRunAsyncSolvable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "async", "flood", "2,0,1", 1, 2, "", 3, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k-set agreement with k=2: satisfied") {
		t.Fatalf("missing verdict:\n%s", buf.String())
	}
}

func TestRunSemiSync(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "semisync", "flood", "1,0,2", 1, 1, "0@3", 0, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Corollary 22 lower bound") || !strings.Contains(out, "decision times") {
		t.Fatalf("missing semisync report:\n%s", out)
	}
}

func TestParseRoundCrashes(t *testing.T) {
	cs, err := parseRoundCrashes("0@1:1;2,3@2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("schedule = %v", cs)
	}
	c0 := cs[0]
	if c0.Round != 1 || !c0.DeliveredTo[1] || !c0.DeliveredTo[2] || c0.DeliveredTo[0] {
		t.Fatalf("crash 0 = %+v", c0)
	}
	if cs[3].Round != 2 || len(cs[3].DeliveredTo) != 0 {
		t.Fatalf("crash 3 = %+v", cs[3])
	}
	for _, bad := range []string{"0", "x@1", "0@y", "0@1:z"} {
		if _, err := parseRoundCrashes(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParseTimedCrashes(t *testing.T) {
	cs, err := parseTimedCrashes("0@3,2@7")
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Time != 3 || cs[2].Time != 7 {
		t.Fatalf("schedule = %v", cs)
	}
	for _, bad := range []string{"0", "x@1", "0@y"} {
		if _, err := parseTimedCrashes(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestRunUnknownModel(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "quantum", "flood", "0,1", 1, 1, "", 0, 1, 2, 2); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRunSyncEarlyProtocol(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "sync", "early", "0,1,2", 1, 1, "", 0, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "early-stopping consensus") {
		t.Fatalf("missing early-stopping banner:\n%s", buf.String())
	}
	if err := run(&buf, "sync", "early", "0,1,2", 2, 2, "", 0, 1, 2, 2); err == nil {
		t.Fatal("early protocol with k != 1 accepted")
	}
	if err := run(&buf, "sync", "magic", "0,1,2", 1, 1, "", 0, 1, 2, 2); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestRunRejectsCrashesOutsideModel: crash schedules over the failure
// bound, of nonexistent processes or at negative times are rejected by
// the schedule's validation before anything runs, rather than run and
// reported as a protocol failure or as satisfied.
func TestRunRejectsCrashesOutsideModel(t *testing.T) {
	for _, tc := range []struct {
		model, inputs, crash, want string
	}{
		{"sync", "0,1,2,3", "0@1:1,1@2:2", "2 crashes scheduled, failure bound is 1"},
		{"semisync", "0,1,2", "0@1,1@1", "2 crashes scheduled, failure bound is 1"},
		{"semisync", "0,1,2", "9@3", "nonexistent process 9"},
		{"semisync", "0,1,2", "0@-5", "negative time -5"},
	} {
		var buf bytes.Buffer
		err := run(&buf, tc.model, "flood", tc.inputs, 1, 1, tc.crash, 0, 1, 2, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-model %s -crash %s: err = %v, want %q", tc.model, tc.crash, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("-model %s -crash %s: ran before rejecting:\n%s", tc.model, tc.crash, buf.String())
		}
	}
}
