package sim

import (
	"container/heap"
	"fmt"

	"pseudosphere/internal/task"
)

// Timing carries the semi-synchronous model's constants: consecutive steps
// of a process are between C1 and C2 apart, and messages are delivered at
// most D after sending.
type Timing struct {
	C1, C2, D int
}

// Validate checks the timing constants.
func (t Timing) Validate() error {
	if t.C1 <= 0 || t.C2 < t.C1 || t.D < t.C1 {
		return fmt.Errorf("sim: invalid timing c1=%d c2=%d d=%d", t.C1, t.C2, t.D)
	}
	return nil
}

// Warnings reports timing choices that Validate accepts but that fall
// outside the paper's round-structured operating envelope. With d < c2 a
// process stepping at its slowest can take no step at all inside a round
// of duration d, so the Section 8 normal form (every process steps in
// every round, p = ceil(d/c1) microrounds) does not cover all executions
// of such a system; results derived from the round structure (Lemmas
// 19-21, Corollary 22) must then be interpreted with care. RunTimed still
// executes these systems exactly.
func (t Timing) Warnings() []string {
	var ws []string
	if t.D < t.C2 {
		ws = append(ws, fmt.Sprintf(
			"sim: d=%d < c2=%d: a slowest-pace process may step zero times in a round, outside the paper's round-structured envelope", t.D, t.C2))
	}
	return ws
}

// TimedProtocol is a per-process protocol for the semi-synchronous model.
// The runner calls Init once, Deliver for each incoming message (with the
// virtual delivery time), and Step at each of the process's steps.
type TimedProtocol interface {
	Init(self, n int, input string, timing Timing)
	Deliver(now, from int, payload string)
	// Step is invoked at each process step; the process may broadcast a
	// payload (empty string = nothing) and may decide.
	Step(now int) (broadcast string, decided bool, decision string)
}

// TimedFactory produces fresh timed protocol instances.
type TimedFactory func() TimedProtocol

// TimedSchedule fixes an execution's nondeterminism: per-process step
// intervals and per-message delays.
type TimedSchedule interface {
	// StepInterval returns the time between step k and step k+1 of process
	// p (k >= 0; step 0 happens at time 0). Must lie in [c1, c2].
	StepInterval(p, k int) int
	// Delay returns the delivery delay of a message sent by from to to at
	// sendTime. Must lie in [1, d].
	Delay(from, to, sendTime int) int
}

// LockstepSchedule is the paper's round-structured subset: every process
// steps every c1, and every message sent in a round is delivered at the
// end of that round (time multiples of d).
type LockstepSchedule struct {
	Timing Timing
}

// StepInterval implements TimedSchedule.
func (s LockstepSchedule) StepInterval(p, k int) int { return s.Timing.C1 }

// Delay implements TimedSchedule: deliver at the end of the current round.
func (s LockstepSchedule) Delay(from, to, sendTime int) int {
	d := s.Timing.D
	end := ((sendTime / d) + 1) * d
	return end - sendTime
}

// SlowSoloSchedule stretches the execution per Corollary 22: the solo
// process steps every c2; everything else is lockstep.
type SlowSoloSchedule struct {
	Timing Timing
	Solo   int
	From   int // time after which Solo slows down
}

// StepInterval implements TimedSchedule.
func (s SlowSoloSchedule) StepInterval(p, k int) int {
	if p == s.Solo && (k+1)*s.Timing.C1 >= s.From {
		return s.Timing.C2
	}
	return s.Timing.C1
}

// Delay implements TimedSchedule.
func (s SlowSoloSchedule) Delay(from, to, sendTime int) int {
	return LockstepSchedule{Timing: s.Timing}.Delay(from, to, sendTime)
}

// CheckSchedule probes a schedule against the timing band: every step
// interval must lie in [c1, c2] and every delay in [1, d]. Processes
// 0..n1-1 are probed for steps 0..window-1 and sends at times 0..window-1.
// Schedules must be pure functions of their arguments (both built-in
// schedules are), so probing is free of side effects. RunTimed uses this
// as a fail-fast guard over a bounded window before executing anything;
// its own event loop still enforces the band exactly on every value it
// consumes, so a schedule that misbehaves only beyond the probe window is
// caught during the run.
func CheckSchedule(schedule TimedSchedule, timing Timing, n1, window int) error {
	if err := timing.Validate(); err != nil {
		return err
	}
	for p := 0; p < n1; p++ {
		for k := 0; k < window; k++ {
			if iv := schedule.StepInterval(p, k); iv < timing.C1 || iv > timing.C2 {
				return fmt.Errorf("sim: schedule out of band: step interval %d for process %d step %d outside [%d, %d]", iv, p, k, timing.C1, timing.C2)
			}
		}
	}
	for from := 0; from < n1; from++ {
		for to := 0; to < n1; to++ {
			if to == from {
				continue
			}
			for st := 0; st < window; st++ {
				if dl := schedule.Delay(from, to, st); dl < 1 || dl > timing.D {
					return fmt.Errorf("sim: schedule out of band: delay %d for %d->%d sent at %d outside [1, %d]", dl, from, to, st, timing.D)
				}
			}
		}
	}
	return nil
}

// checkWindow bounds the upfront CheckSchedule probe in RunTimed: both
// built-in schedules are periodic well within a few multiples of d, so a
// small window catches misconfigurations before any protocol code runs
// without making large horizons quadratic to start.
const checkWindow = 64

// TimedCrash stops a process at a virtual time. A step the process takes
// at exactly Time reaches only the receivers in DeliveredTo (nil: no one)
// and decides nothing, and no later step follows; deliveries to it at or
// after Time are lost. The partial broadcast lets each survivor see a
// failing process last at a different microround (Lemma 19).
type TimedCrash struct {
	Time        int
	DeliveredTo map[int]bool
}

// TimedCrashSchedule maps process ids to their crash times.
type TimedCrashSchedule map[int]TimedCrash

// Validate checks the schedule against the process count and failure
// bound: at most f crashes, each of an existing process at a nonnegative
// time, delivering only to other existing processes.
func (cs TimedCrashSchedule) Validate(n1, f int) error {
	if len(cs) > f {
		return fmt.Errorf("sim: %d crashes scheduled, failure bound is %d", len(cs), f)
	}
	for p, c := range cs {
		if p < 0 || p >= n1 {
			return fmt.Errorf("sim: crash scheduled for nonexistent process %d", p)
		}
		if c.Time < 0 {
			return fmt.Errorf("sim: process %d crashes at negative time %d", p, c.Time)
		}
		for q := range c.DeliveredTo {
			if q < 0 || q >= n1 || q == p {
				return fmt.Errorf("sim: crash of %d delivers to process %d, which is not another process", p, q)
			}
		}
	}
	return nil
}

// timedEvent is an entry in the discrete-event queue.
type timedEvent struct {
	time int
	kind int // 0 = delivery, 1 = step (deliveries first at equal times)
	seq  int // FIFO tiebreak
	proc int
	from int
	pay  string
	step int
}

type eventQueue []*timedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*timedEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// TimedRun is the outcome of a semi-synchronous execution, including when
// each process decided.
type TimedRun struct {
	Outcome   *task.RunOutcome
	DecidedAt map[int]int // process -> virtual decision time
	EndTime   int         // last processed event time
}

// RunTimed executes a timed protocol under the semi-synchronous model
// until every non-crashed process decides or the horizon elapses.
func RunTimed(inputs []string, factory TimedFactory, timing Timing, schedule TimedSchedule, crashes TimedCrashSchedule, horizon int) (*TimedRun, error) {
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no processes")
	}
	n1 := len(inputs)
	window := checkWindow
	if horizon < window {
		window = horizon
	}
	if err := CheckSchedule(schedule, timing, n1, window); err != nil {
		return nil, err
	}
	if err := crashes.Validate(n1, n1); err != nil {
		return nil, err
	}
	insts := make([]TimedProtocol, n1)
	for i := range insts {
		insts[i] = factory()
		insts[i].Init(i, n1, inputs[i], timing)
	}
	outcome := &task.RunOutcome{
		Inputs:    make(map[int]string, n1),
		Decisions: make(map[int]string, n1),
		Crashed:   make(map[int]bool),
	}
	for i, in := range inputs {
		outcome.Inputs[i] = in
	}
	run := &TimedRun{Outcome: outcome, DecidedAt: make(map[int]int)}

	q := &eventQueue{}
	seq := 0
	push := func(ev *timedEvent) {
		ev.seq = seq
		seq++
		heap.Push(q, ev)
	}
	for i := 0; i < n1; i++ {
		push(&timedEvent{time: 0, kind: 1, proc: i, step: 0})
	}
	crashedAt := func(p, t int) bool {
		c, ok := crashes[p]
		return ok && t >= c.Time
	}
	for p, c := range crashes {
		if c.Time <= horizon {
			outcome.Crashed[p] = true
		}
	}

	stepCount := make([]int, n1)
	for q.Len() > 0 {
		ev := heap.Pop(q).(*timedEvent)
		if ev.time > horizon {
			break
		}
		run.EndTime = ev.time
		switch ev.kind {
		case 0: // delivery
			if crashedAt(ev.proc, ev.time) {
				continue
			}
			insts[ev.proc].Deliver(ev.time, ev.from, ev.pay)
		case 1: // step
			p := ev.proc
			c, crashing := crashes[p]
			if crashing && ev.time > c.Time {
				continue
			}
			partial := crashing && ev.time == c.Time
			payload, decided, decision := insts[p].Step(ev.time)
			if payload != "" {
				for to := 0; to < n1; to++ {
					if partial && !c.DeliveredTo[to] {
						continue
					}
					if to == p {
						insts[p].Deliver(ev.time, p, payload)
						continue
					}
					delay := schedule.Delay(p, to, ev.time)
					if delay < 1 || delay > timing.D {
						return nil, fmt.Errorf("sim: delay %d for %d->%d outside (0, %d]", delay, p, to, timing.D)
					}
					push(&timedEvent{time: ev.time + delay, kind: 0, proc: to, from: p, pay: payload})
				}
			}
			if partial {
				continue
			}
			if decided {
				if _, already := run.DecidedAt[p]; !already {
					run.DecidedAt[p] = ev.time
					outcome.Decisions[p] = decision
				}
			}
			interval := schedule.StepInterval(p, stepCount[p])
			if interval < timing.C1 || interval > timing.C2 {
				return nil, fmt.Errorf("sim: step interval %d for process %d outside [%d, %d]", interval, p, timing.C1, timing.C2)
			}
			stepCount[p]++
			push(&timedEvent{time: ev.time + interval, kind: 1, proc: p, step: stepCount[p]})
		}
		if len(run.DecidedAt) == n1-len(outcome.Crashed) {
			undecidedAlive := false
			for i := 0; i < n1; i++ {
				if !outcome.Crashed[i] {
					if _, ok := run.DecidedAt[i]; !ok {
						undecidedAlive = true
						break
					}
				}
			}
			if !undecidedAlive {
				break
			}
		}
	}
	return run, nil
}
