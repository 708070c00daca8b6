package protocols

import (
	"fmt"
	"sort"
	"strings"

	"pseudosphere/internal/sim"
	"pseudosphere/internal/views"
)

// FullInfo is the full-information protocol of Section 4 run on the
// runtime: in every round each process sends its entire local state and
// its new state is the collection of states received. Its decision value
// after r rounds is the canonical encoding of its view, which makes
// runtime executions directly comparable with the combinatorial protocol
// complexes: a run's final views must form a simplex of the corresponding
// model's r-round complex. The integration tests use this to cross-check
// internal/sim against internal/syncmodel and internal/asyncmodel.
type FullInfo struct {
	self, n int
	rounds  int
	current *views.View
	heard   map[int]*views.View
}

// NewFullInfo returns a factory for the full-information protocol that
// stops after the given number of rounds.
func NewFullInfo(rounds int) sim.ProtocolFactory {
	return func() sim.RoundProtocol { return &FullInfo{rounds: rounds} }
}

// Init implements sim.RoundProtocol.
func (p *FullInfo) Init(self, n int, input string) {
	p.self, p.n = self, n
	p.current = views.Initial(self, input)
}

// Message implements sim.RoundProtocol: send the whole state, encoded.
func (p *FullInfo) Message(round int) string {
	return fmt.Sprintf("%d|%s", p.self, p.current.Encode())
}

// Deliver implements sim.RoundProtocol: record the sender's state.
func (p *FullInfo) Deliver(round, from int, payload string) {
	if p.heard == nil {
		p.heard = make(map[int]*views.View, p.n)
	}
	sep := strings.IndexByte(payload, '|')
	if sep < 0 {
		return
	}
	v, err := views.Decode(payload[sep+1:])
	if err != nil || v.P != from {
		return
	}
	p.heard[from] = v
}

// EndRound implements sim.RoundProtocol: fold the received states into the
// next view; decide (on the encoded view) after the round budget.
func (p *FullInfo) EndRound(round int) (bool, string) {
	heard := p.heard
	if heard == nil {
		heard = make(map[int]*views.View, 1)
	}
	if _, ok := heard[p.self]; !ok {
		heard[p.self] = p.current
	}
	p.current = views.NewHeard(sortedViews(heard), nil).View(p.self)
	p.heard = nil
	if round >= p.rounds {
		return true, p.current.Encode()
	}
	return false, ""
}

// sortedViews returns the received views in ascending sender order.
func sortedViews(heard map[int]*views.View) []*views.View {
	from := make([]*views.View, 0, len(heard))
	for _, v := range heard {
		from = append(from, v)
	}
	sort.Slice(from, func(i, j int) bool { return from[i].P < from[j].P })
	return from
}

// View returns the protocol's current full-information view.
func (p *FullInfo) View() *views.View { return p.current }
