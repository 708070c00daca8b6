// Package sim is the executable message-passing substrate: it runs real
// protocols (internal/protocols) under the three timing models the paper
// unifies. Processes are protocol instances the runners call in turn on
// the caller's goroutine, over reliable FIFO links with crash injection;
// schedulers realize the synchronous (lockstep rounds), round-based
// asynchronous (at least n-f+1 deliveries per round, FIFO catch-up), and
// semi-synchronous (virtual time, steps in [c1,c2], delivery within d)
// models. All runs are deterministic given
// their schedules, so tests can enumerate adversarial behaviours
// exhaustively at small scale.
package sim

import "fmt"

// RoundProtocol is a deterministic per-process protocol for round-based
// execution (synchronous or round-based asynchronous). The runner calls
// Init once, then for each round Message, a sequence of Deliver calls, and
// EndRound.
type RoundProtocol interface {
	// Init resets the process with its id, the process count, and input.
	Init(self, n int, input string)
	// Message returns the payload this process broadcasts in the given
	// round (rounds are 1-based).
	Message(round int) string
	// Deliver hands the process a payload another process sent in the
	// given round. Deliveries within a round arrive in sender order.
	Deliver(round, from int, payload string)
	// EndRound signals the end of a round; the process may decide.
	EndRound(round int) (decided bool, decision string)
}

// ProtocolFactory produces fresh protocol instances, one per process.
type ProtocolFactory func() RoundProtocol

// Crash describes a crash: the process stops in round Round after its
// round message reached only the receivers in DeliveredTo (the rest of the
// round's sends are lost). A nil DeliveredTo means no one received it.
type Crash struct {
	Round       int
	DeliveredTo map[int]bool
}

// CrashSchedule maps process ids to their crash, if any.
type CrashSchedule map[int]Crash

// Validate checks the schedule against the process count and failure
// bound.
func (cs CrashSchedule) Validate(n1, f int) error {
	if len(cs) > f {
		return fmt.Errorf("sim: %d crashes scheduled, failure bound is %d", len(cs), f)
	}
	for p, c := range cs {
		if p < 0 || p >= n1 {
			return fmt.Errorf("sim: crash scheduled for nonexistent process %d", p)
		}
		if c.Round < 1 {
			return fmt.Errorf("sim: process %d crashes in round %d; rounds are 1-based", p, c.Round)
		}
		for q := range c.DeliveredTo {
			if q < 0 || q >= n1 {
				return fmt.Errorf("sim: crash of %d delivers to nonexistent process %d", p, q)
			}
		}
	}
	return nil
}

// FailuresPerRound returns how many processes crash in each round (1-based
// map).
func (cs CrashSchedule) FailuresPerRound() map[int]int {
	out := make(map[int]int)
	for _, c := range cs {
		out[c.Round]++
	}
	return out
}
