package sim

import (
	"fmt"
	"testing"
)

// echoProto is a minimal protocol for engine testing: it records what it
// receives and decides after a fixed round with a deterministic summary.
type echoProto struct {
	self, n  int
	rounds   int
	received []string
}

func (p *echoProto) Init(self, n int, input string) {
	p.self, p.n = self, n
	p.received = []string{input}
}
func (p *echoProto) Message(round int) string {
	return fmt.Sprintf("m%d-%d", p.self, round)
}
func (p *echoProto) Deliver(round, from int, payload string) {
	p.received = append(p.received, payload)
}
func (p *echoProto) EndRound(round int) (bool, string) {
	if round >= p.rounds {
		return true, fmt.Sprintf("%d", len(p.received))
	}
	return false, ""
}

func echoFactory(rounds int) ProtocolFactory {
	return func() RoundProtocol { return &echoProto{rounds: rounds} }
}

func TestSyncFailureFreeDeliversEverything(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	out, err := RunSync(inputs, echoFactory(2), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		// input + 3 messages per round * 2 rounds = 7 entries.
		if out.Decisions[p] != "7" {
			t.Fatalf("process %d decision %q, want 7 received entries", p, out.Decisions[p])
		}
	}
}

func TestSyncCrashPartialBroadcast(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	crashes := CrashSchedule{0: {Round: 1, DeliveredTo: map[int]bool{1: true}}}
	out, err := RunSync(inputs, echoFactory(1), crashes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed[0] {
		t.Fatal("process 0 should be crashed")
	}
	if _, decided := out.Decisions[0]; decided {
		t.Fatal("crashed process must not decide")
	}
	// Process 1 heard everyone (incl. the partial broadcast): 1+3 = 4.
	if out.Decisions[1] != "4" {
		t.Fatalf("process 1 decision %q, want 4", out.Decisions[1])
	}
	// Process 2 missed process 0's message: 1+2 = 3.
	if out.Decisions[2] != "3" {
		t.Fatalf("process 2 decision %q, want 3", out.Decisions[2])
	}
}

func TestCrashedProcessSendsNothingLater(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	crashes := CrashSchedule{0: {Round: 1}}
	out, err := RunSync(inputs, echoFactory(2), crashes, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Survivors hear only each other after round 1: 1 + 2 + 2 = 5.
	for p := 1; p <= 2; p++ {
		if out.Decisions[p] != "5" {
			t.Fatalf("process %d decision %q, want 5", p, out.Decisions[p])
		}
	}
}

func TestAsyncFIFOCatchUp(t *testing.T) {
	inputs := []string{"a", "b"}
	// Round 1: process 1 does not hear process 0. Round 2: it hears both
	// of process 0's messages, in order.
	sched := &FixedAsyncSchedule{HeardSets: map[int]map[int][]int{
		1: {0: {0, 1}, 1: {1}},
		2: {0: {0, 1}, 1: {0, 1}},
	}}
	var seen []string
	factory := func() RoundProtocol {
		return &hookProto{rounds: 2, onDeliver: func(self, round, from int, payload string) {
			if self == 1 {
				seen = append(seen, payload)
			}
		}}
	}
	if _, err := RunAsync(inputs, factory, nil, sched, 3); err != nil {
		t.Fatal(err)
	}
	want := []string{"m1-1", "m0-1", "m0-2", "m1-2"}
	if len(seen) != len(want) {
		t.Fatalf("process 1 deliveries: %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("process 1 deliveries: %v, want %v (FIFO catch-up)", seen, want)
		}
	}
}

// hookProto instruments deliveries.
type hookProto struct {
	self, n   int
	rounds    int
	onDeliver func(self, round, from int, payload string)
}

func (p *hookProto) Init(self, n int, input string) { p.self, p.n = self, n }
func (p *hookProto) Message(round int) string       { return fmt.Sprintf("m%d-%d", p.self, round) }
func (p *hookProto) Deliver(round, from int, payload string) {
	p.onDeliver(p.self, round, from, payload)
}
func (p *hookProto) EndRound(round int) (bool, string) {
	return round >= p.rounds, "done"
}

func TestRandomAsyncScheduleRespectsThreshold(t *testing.T) {
	n1, f := 4, 2
	s := NewRandomAsyncSchedule(n1, f, 7)
	alive := []int{0, 1, 2, 3}
	for round := 1; round <= 10; round++ {
		for _, recv := range alive {
			heard := s.Heard(round, recv, alive)
			if err := ValidateAsyncThreshold(heard, recv, n1, f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEnumerateCrashSchedules(t *testing.T) {
	got := EnumerateCrashSchedules(3, 1, 1)
	// No crash, or one of 3 processes crashing in round 1 with one of 4
	// delivery subsets: 1 + 12 = 13.
	if len(got) != 13 {
		t.Fatalf("schedules = %d, want 13", len(got))
	}
	for _, cs := range got {
		if err := cs.Validate(3, 1); err != nil {
			t.Fatal(err)
		}
	}
	two := EnumerateCrashSchedules(3, 2, 2)
	for _, cs := range two {
		if len(cs) > 2 {
			t.Fatalf("schedule %v exceeds failure bound", cs)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, echoFactory(1), nil, SyncPlan, 1); err == nil {
		t.Fatal("expected error for zero processes")
	}
	if _, err := NewEngine([]string{"a"}, echoFactory(1), nil, SyncPlan, 0); err == nil {
		t.Fatal("expected error for zero rounds")
	}
	bad := CrashSchedule{5: {Round: 1}}
	if _, err := NewEngine([]string{"a", "b"}, echoFactory(1), bad, SyncPlan, 1); err == nil {
		t.Fatal("expected error for out-of-range crash")
	}
	if err := (CrashSchedule{0: {Round: 0}}).Validate(2, 1); err == nil {
		t.Fatal("expected error for round-0 crash")
	}
}

// timedEcho decides at a fixed step, recording times.
type timedEcho struct {
	self, steps, decideAt int
}

func (p *timedEcho) Init(self, n int, input string, timing Timing) { p.self = self }
func (p *timedEcho) Deliver(now, from int, payload string)         {}
func (p *timedEcho) Step(now int) (string, bool, string) {
	p.steps++
	if p.steps >= p.decideAt {
		return "", true, "ok"
	}
	return fmt.Sprintf("s%d", p.steps), false, ""
}

func TestTimedLockstep(t *testing.T) {
	timing := Timing{C1: 2, C2: 4, D: 6}
	factory := func() TimedProtocol { return &timedEcho{decideAt: 4} }
	run, err := RunTimed([]string{"a", "b"}, factory, timing, LockstepSchedule{Timing: timing}, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		// Steps at 0, 2, 4, 6: decision on the 4th step at time 6.
		if run.DecidedAt[p] != 6 {
			t.Fatalf("process %d decided at %d, want 6", p, run.DecidedAt[p])
		}
	}
}

func TestTimedSlowSolo(t *testing.T) {
	timing := Timing{C1: 1, C2: 3, D: 2}
	factory := func() TimedProtocol { return &timedEcho{decideAt: 5} }
	sched := SlowSoloSchedule{Timing: timing, Solo: 0, From: 0}
	crashes := TimedCrashSchedule{1: {Time: 1}}
	run, err := RunTimed([]string{"a", "b"}, factory, timing, sched, crashes, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Solo process 0 steps at 0, 3, 6, 9, 12 (c2 = 3 apart).
	if run.DecidedAt[0] != 12 {
		t.Fatalf("solo decided at %d, want 12", run.DecidedAt[0])
	}
	if !run.Outcome.Crashed[1] {
		t.Fatal("process 1 should be crashed")
	}
}

func TestTimedDeliveryWithinD(t *testing.T) {
	timing := Timing{C1: 1, C2: 1, D: 3}
	type rec struct{ at, from int }
	var got []rec
	factory := func() TimedProtocol {
		return &timedHook{onDeliver: func(self, now, from int) {
			if self == 1 {
				got = append(got, rec{now, from})
			}
		}}
	}
	run, err := RunTimed([]string{"a", "b"}, factory, timing, LockstepSchedule{Timing: timing}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	_ = run
	for _, r := range got {
		if r.from == 0 && r.at%timing.D != 0 {
			t.Fatalf("lockstep delivery at %d, want end of round (multiples of %d)", r.at, timing.D)
		}
	}
	if len(got) == 0 {
		t.Fatal("no deliveries observed")
	}
}

type timedHook struct {
	self      int
	onDeliver func(self, now, from int)
}

func (p *timedHook) Init(self, n int, input string, timing Timing) { p.self = self }
func (p *timedHook) Deliver(now, from int, payload string) {
	if from != p.self {
		p.onDeliver(p.self, now, from)
	}
}
func (p *timedHook) Step(now int) (string, bool, string) {
	if now >= 6 {
		return "", true, "ok"
	}
	return "x", false, ""
}

// TestEngineTerminatesWithoutDecisions checks the engine returns cleanly
// (all goroutines joined) when maxRounds elapses with undecided processes.
func TestEngineTerminatesWithoutDecisions(t *testing.T) {
	factory := func() RoundProtocol { return &echoProto{rounds: 100} } // never decides in time
	out, err := RunSync([]string{"a", "b"}, factory, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 0 {
		t.Fatalf("unexpected decisions %v", out.Decisions)
	}
}

// TestTimedHorizonStopsRun checks the timed runner respects its horizon.
func TestTimedHorizonStopsRun(t *testing.T) {
	timing := Timing{C1: 1, C2: 1, D: 1}
	factory := func() TimedProtocol { return &timedEcho{decideAt: 1 << 30} }
	run, err := RunTimed([]string{"a"}, factory, timing, LockstepSchedule{Timing: timing}, nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	if run.EndTime > 25 {
		t.Fatalf("run continued past the horizon: %d", run.EndTime)
	}
	if len(run.DecidedAt) != 0 {
		t.Fatal("no decision expected")
	}
}

// TestTimedRejectsBadSchedule checks schedule validation: delays and step
// intervals outside the model's bounds are errors.
func TestTimedRejectsBadSchedule(t *testing.T) {
	timing := Timing{C1: 2, C2: 3, D: 2}
	factory := func() TimedProtocol { return &timedEcho{decideAt: 5} }
	if _, err := RunTimed([]string{"a", "b"}, factory, timing, badDelay{}, nil, 50); err == nil {
		t.Fatal("delay beyond d accepted")
	}
	if _, err := RunTimed([]string{"a", "b"}, factory, timing, badStep{}, nil, 50); err == nil {
		t.Fatal("step interval below c1 accepted")
	}
	if _, err := RunTimed(nil, factory, timing, badStep{}, nil, 50); err == nil {
		t.Fatal("zero processes accepted")
	}
	if _, err := RunTimed([]string{"a"}, factory, Timing{C1: 0, C2: 1, D: 1}, badStep{}, nil, 50); err == nil {
		t.Fatal("invalid timing accepted")
	}
}

type badDelay struct{}

func (badDelay) StepInterval(p, k int) int        { return 2 }
func (badDelay) Delay(from, to, sendTime int) int { return 99 }

type badStep struct{}

func (badStep) StepInterval(p, k int) int        { return 1 } // below c1 = 2
func (badStep) Delay(from, to, sendTime int) int { return 1 }

// lastHeard broadcasts its step number at every step before time d and,
// at its first step at or after d, decides on the last step number it
// heard from process 0 ("0" if none).
type lastHeard struct {
	d, step int
	from0   string
}

func (p *lastHeard) Init(self, n int, input string, timing Timing) { p.d, p.from0 = timing.D, "0" }
func (p *lastHeard) Deliver(now, from int, payload string) {
	if from == 0 {
		p.from0 = payload
	}
}
func (p *lastHeard) Step(now int) (string, bool, string) {
	if now >= p.d {
		return "", true, p.from0
	}
	p.step++
	return fmt.Sprint(p.step), false, ""
}

// TestTimedPartialBroadcast: a crash cuts the broadcast of the step at
// the crash time short to DeliveredTo, so survivors see the failing
// process last at different microrounds; with DeliveredTo nil or empty
// that step reaches no one, and every survivor sees it last at the same
// microround.
func TestTimedPartialBroadcast(t *testing.T) {
	timing := Timing{C1: 1, C2: 2, D: 2}
	factory := func() TimedProtocol { return &lastHeard{} }
	for _, tc := range []struct {
		crash TimedCrash
		want  map[int]string
	}{
		// Process 0 steps at microround 1 (time 0) and crashes at its
		// microround-2 step (time 1), which reaches process 1 only.
		{TimedCrash{Time: 1, DeliveredTo: map[int]bool{1: true}}, map[int]string{1: "2", 2: "1"}},
		{TimedCrash{Time: 1, DeliveredTo: map[int]bool{}}, map[int]string{1: "1", 2: "1"}},
		{TimedCrash{Time: 1}, map[int]string{1: "1", 2: "1"}},
		{TimedCrash{Time: 0, DeliveredTo: map[int]bool{2: true}}, map[int]string{1: "0", 2: "1"}},
	} {
		run, err := RunTimed([]string{"a", "b", "c"}, factory, timing, LockstepSchedule{Timing: timing},
			TimedCrashSchedule{0: tc.crash}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Outcome.Crashed[0] {
			t.Errorf("%+v: process 0 not reported crashed", tc.crash)
		}
		if d, ok := run.Outcome.Decisions[0]; ok {
			t.Errorf("%+v: crashed process 0 decided %q", tc.crash, d)
		}
		for p, want := range tc.want {
			if got := run.Outcome.Decisions[p]; got != want {
				t.Errorf("%+v: process %d last heard process 0 at microround %q, want %q", tc.crash, p, got, want)
			}
		}
	}
}

// TestTimedCrashValidate: RunTimed rejects crashes of nonexistent
// processes, at negative times, or delivering to the crasher itself or to
// a nonexistent process; Validate also enforces a failure bound.
func TestTimedCrashValidate(t *testing.T) {
	timing := Timing{C1: 1, C2: 2, D: 2}
	factory := func() TimedProtocol { return &lastHeard{} }
	for _, cs := range []TimedCrashSchedule{
		{9: {Time: 3}},
		{-1: {Time: 3}},
		{0: {Time: -5}},
		{0: {Time: 1, DeliveredTo: map[int]bool{0: true}}},
		{0: {Time: 1, DeliveredTo: map[int]bool{3: true}}},
	} {
		if _, err := RunTimed([]string{"a", "b", "c"}, factory, timing, LockstepSchedule{Timing: timing}, cs, 10); err == nil {
			t.Errorf("schedule %v accepted", cs)
		}
	}
	two := TimedCrashSchedule{0: {Time: 1}, 1: {Time: 1}}
	if err := two.Validate(3, 1); err == nil {
		t.Error("two crashes accepted with failure bound 1")
	}
	if err := two.Validate(3, 2); err != nil {
		t.Errorf("two crashes rejected with failure bound 2: %v", err)
	}
}
