package protocols

import (
	"fmt"
	"strconv"
	"strings"

	"pseudosphere/internal/sim"
	"pseudosphere/internal/views"
)

// TimedFullInfo is the semi-synchronous full-information protocol of
// Section 8 run on the virtual-time runtime: under the lockstep schedule a
// process takes p = ceil(d/c1) steps per round (microrounds 1..p),
// broadcasting its state at each; all messages arrive at the round
// boundary. Its end-of-round view records, per sender, the last microround
// heard and the sender's previous-round state — encoded exactly as
// internal/semisync encodes its complexes, so runtime executions are
// directly checkable against M^1 (the integration tests do this for every
// crash time).
type TimedFullInfo struct {
	self, n    int
	timing     sim.Timing
	micro      int
	step       int
	current    *views.View
	heardView  map[int]*views.View
	heardMicro map[int]int
	decided    bool
	decision   string
}

// NewTimedFullInfo returns a factory for the one-round semi-synchronous
// full-information protocol.
func NewTimedFullInfo() sim.TimedFactory {
	return func() sim.TimedProtocol { return &TimedFullInfo{} }
}

// Init implements sim.TimedProtocol.
func (p *TimedFullInfo) Init(self, n int, input string, timing sim.Timing) {
	p.self, p.n, p.timing = self, n, timing
	p.micro = (timing.D + timing.C1 - 1) / timing.C1
	p.current = views.Initial(self, input)
	p.heardView = make(map[int]*views.View, n)
	p.heardMicro = make(map[int]int, n)
}

// Deliver implements sim.TimedProtocol: payloads are
// "sender|microround|view".
func (p *TimedFullInfo) Deliver(now, from int, payload string) {
	parts := strings.SplitN(payload, "|", 3)
	if len(parts) != 3 {
		return
	}
	micro, err := strconv.Atoi(parts[1])
	if err != nil {
		return
	}
	v, err := views.Decode(parts[2])
	if err != nil || v.P != from {
		return
	}
	if micro > p.heardMicro[from] {
		p.heardMicro[from] = micro
		p.heardView[from] = v
	}
}

// Step implements sim.TimedProtocol: broadcast at each microround of round
// 1, then finalize the view at the round boundary.
func (p *TimedFullInfo) Step(now int) (string, bool, string) {
	if p.decided {
		return "", true, p.decision
	}
	if now >= p.timing.D {
		// Round boundary passed; all round-1 messages were delivered
		// before this step. Finalize the full-information view.
		from := sortedViews(p.heardView)
		notes := make([]string, len(from))
		for i, v := range from {
			notes[i] = strconv.Itoa(p.heardMicro[v.P])
		}
		next := views.NewHeard(from, notes).View(p.self)
		p.decided, p.decision = true, next.Encode()
		return "", true, p.decision
	}
	p.step++
	if p.step > p.micro {
		return "", false, ""
	}
	return fmt.Sprintf("%d|%d|%s", p.self, p.step, p.current.Encode()), false, ""
}
