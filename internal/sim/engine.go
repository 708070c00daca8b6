package sim

import (
	"fmt"
	"sort"

	"pseudosphere/internal/task"
)

// DeliveryPlan tells the round engine which messages reach which receivers.
// For a given round it returns, per receiver, per sender, the
// highest-numbered round of that sender whose message is delivered to the
// receiver by the end of this round (at most the current round; the engine
// delivers any skipped earlier messages first, preserving FIFO order).
// Missing entries mean "nothing new from that sender this round".
type DeliveryPlan func(round int, alive []int) map[int]map[int]int

// Engine drives one execution of a round-based protocol over a set of
// processes, with crash injection, calling each process in turn on the
// caller's goroutine. It implements both the synchronous and the
// round-based asynchronous model, differing only in the DeliveryPlan.
type Engine struct {
	n1        int // number of processes
	factory   ProtocolFactory
	inputs    []string
	crashes   CrashSchedule
	plan      DeliveryPlan
	maxRounds int
}

// NewEngine validates and assembles an execution.
func NewEngine(inputs []string, factory ProtocolFactory, crashes CrashSchedule, plan DeliveryPlan, maxRounds int) (*Engine, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no processes")
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("sim: maxRounds must be at least 1, got %d", maxRounds)
	}
	if err := crashes.Validate(len(inputs), len(inputs)); err != nil {
		return nil, err
	}
	return &Engine{
		n1:        len(inputs),
		factory:   factory,
		inputs:    inputs,
		crashes:   crashes,
		plan:      plan,
		maxRounds: maxRounds,
	}, nil
}

// Run executes the protocol to completion: until every non-crashed process
// has decided or maxRounds have elapsed. It returns the observable outcome.
// Each round has three phases: every process still sending produces its
// round message, the plan's deliveries reach every survivor, and each
// survivor ends the round.
func (e *Engine) Run() (*task.RunOutcome, error) {
	procs := make([]RoundProtocol, e.n1)
	for i := range procs {
		procs[i] = e.factory()
		procs[i].Init(i, e.n1, e.inputs[i])
	}
	outcome := &task.RunOutcome{
		Inputs:    make(map[int]string, e.n1),
		Decisions: make(map[int]string, e.n1),
		Crashed:   make(map[int]bool),
	}
	for i, in := range e.inputs {
		outcome.Inputs[i] = in
	}

	history := make([][]string, e.n1)    // history[p][r-1] = p's round-r payload
	lastDelivered := make([][]int, e.n1) // lastDelivered[recv][sender]
	for i := range lastDelivered {
		lastDelivered[i] = make([]int, e.n1)
	}
	crashed := make(map[int]bool)

	for round := 1; round <= e.maxRounds; round++ {
		alive := e.aliveAtStart(crashed)

		// Phase 1: collect this round's messages from everyone still
		// sending (alive processes and those crashing THIS round, which
		// send a partial broadcast).
		for _, p := range alive {
			history[p] = append(history[p], procs[p].Message(round))
		}

		// Phase 2: compute deliveries.
		planned := e.plan(round, alive)
		for p, c := range e.crashes {
			if c.Round == round {
				crashed[p] = true
				outcome.Crashed[p] = true
			}
		}
		allDecided := true
		for recv, proc := range procs {
			if crashed[recv] {
				continue
			}
			upTos := planned[recv]
			senders := make([]int, 0, len(upTos))
			for s := range upTos {
				senders = append(senders, s)
			}
			sort.Ints(senders)
			for _, s := range senders {
				upTo := upTos[s]
				if upTo > round {
					return nil, fmt.Errorf("sim: plan delivers round-%d message in round %d", upTo, round)
				}
				if upTo > len(history[s]) {
					upTo = len(history[s]) // sender stopped before that round
				}
				// Crash semantics: the crash-round message of s reaches
				// only DeliveredTo; later messages do not exist.
				if c, ok := e.crashes[s]; ok {
					if upTo >= c.Round && !c.DeliveredTo[recv] {
						upTo = c.Round - 1
					}
				}
				for r := lastDelivered[recv][s] + 1; r <= upTo; r++ {
					proc.Deliver(round, s, history[s][r-1])
				}
				if upTo > lastDelivered[recv][s] {
					lastDelivered[recv][s] = upTo
				}
			}

			// Phase 3: end of round; gather decisions.
			if decided, decision := proc.EndRound(round); decided {
				outcome.Decisions[recv] = decision
			} else {
				allDecided = false
			}
		}
		if allDecided {
			break
		}
	}
	return outcome, nil
}

// aliveAtStart lists processes that have not crashed before this round
// (processes crashing this round still send).
func (e *Engine) aliveAtStart(crashed map[int]bool) []int {
	var alive []int
	for i := 0; i < e.n1; i++ {
		if !crashed[i] {
			alive = append(alive, i)
		}
	}
	return alive
}
