package modelspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/syncmodel"
)

// Spec-level bounds. They cap parse and validation work only; the
// enumeration cost of a compiled spec is still priced by admission.
const (
	// MaxSpecBytes caps a spec document.
	MaxSpecBytes = 1 << 16
	// MaxGraphs caps the graph list of a graphs adversary.
	MaxGraphs = 64
)

// SpecModel is the Instance.Model value of adversary-form specs.
const SpecModel = "spec"

// Spec is the JSON model definition the service accepts inline, in two
// mutually exclusive dialects:
//
// Preset form — a registered model by name, parameters under their
// query-string names:
//
//	{"name": "sync", "params": {"n": 3, "k": 1, "r": 2}}
//
// Adversary form — processes many processes (ids 0..processes-1) run
// rounds rounds against an explicit per-round adversary:
//
//	{"processes": 3, "rounds": 2,
//	 "adversary": {"kind": "graphs", "graphs": [{"edges": [[0,1],[1,2],[2,0]]}]}}
//
// input_dim (default processes-1) selects the input face dimension m,
// mirroring the presets' m= parameter.
type Spec struct {
	Name   string         `json:"name,omitempty"`
	Params map[string]int `json:"params,omitempty"`

	Processes int        `json:"processes,omitempty"`
	InputDim  *int       `json:"input_dim,omitempty"`
	Rounds    *int       `json:"rounds,omitempty"`
	Adversary *Adversary `json:"adversary,omitempty"`
}

// Adversary is the per-round adversary of the spec dialect.
//
// Kind "crash": synchronous lockstep where at most per_round processes
// crash each round and, when total is set, at most total crash overall —
// Section 7's failure structure with total, the per-round-only budget
// model without it.
//
// Kind "graphs": an oblivious message adversary given by explicit
// directed communication graphs (the dynamic-network characterization of
// Rincon Galeana et al.): each round the adversary picks one allowed
// graph, and a process hears exactly itself plus its in-neighbors. With
// no schedule every graph is allowed every round; schedule[i] restricts
// round i to the listed graph indices (a round quantifier).
type Adversary struct {
	Kind     string  `json:"kind"`
	PerRound int     `json:"per_round,omitempty"`
	Total    *int    `json:"total,omitempty"`
	Graphs   []Graph `json:"graphs,omitempty"`
	Schedule [][]int `json:"schedule,omitempty"`
}

// Graph is one directed communication graph, as a list of edges
// [from, to]: from's round message reaches to. Self-delivery is
// implicit; self-loops are rejected.
type Graph struct {
	Edges [][2]int `json:"edges"`
}

// Parse decodes and validates a spec document. Validation is complete:
// a spec Parse accepts always compiles (validate-before-price), every
// rejection is an *Error (HTTP 400 at the service boundary), and no
// input panics — the contract the fuzzer enforces.
func Parse(data []byte) (*Spec, error) {
	if len(data) == 0 {
		return nil, errf("empty model spec")
	}
	if len(data) > MaxSpecBytes {
		return nil, errf("model spec of %d bytes exceeds the %d limit", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, errf("invalid model spec JSON: %v", err)
	}
	if dec.More() {
		return nil, errf("model spec has trailing data after the JSON object")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the whole spec, including the parameter-level
// constraints compilation would enforce, so Parse's acceptance is
// authoritative.
func (s *Spec) validate() error {
	if s.Name != "" {
		if s.Adversary != nil || s.Processes != 0 || s.InputDim != nil || s.Rounds != nil {
			return errf("a preset spec (name=%q) takes only params; processes/input_dim/rounds/adversary belong to the adversary form", s.Name)
		}
		m, ok := registry[s.Name]
		if !ok {
			return errf("unknown model %q (want %s)", s.Name, strings.Join(Names(), ", "))
		}
		p := defaultParams()
		for k, v := range s.Params {
			if !p.setField(k, v) {
				return errf("unknown parameter %q (want one of %s)", k, strings.Join(paramNames, ", "))
			}
		}
		_, err := m.instance(p)
		return err
	}
	if s.Adversary == nil {
		return errf("model spec needs a preset name or an adversary")
	}
	if len(s.Params) > 0 {
		return errf("params belongs to the preset form; the adversary form uses processes/input_dim/rounds")
	}
	n := s.Processes - 1
	if s.Processes < 1 || n > MaxN {
		return errf("processes=%d out of range [1, %d]", s.Processes, MaxN+1)
	}
	if s.InputDim != nil && (*s.InputDim < 0 || *s.InputDim > n) {
		return errf("input_dim=%d out of range [0, %d]", *s.InputDim, n)
	}
	r := 1
	if s.Rounds != nil {
		r = *s.Rounds
	}
	if r < 0 || r > MaxRounds {
		return errf("rounds=%d out of range [0, %d]", r, MaxRounds)
	}
	return s.Adversary.validate(n, r)
}

func (a *Adversary) validate(n, r int) error {
	switch a.Kind {
	case "crash":
		if len(a.Graphs) > 0 || len(a.Schedule) > 0 {
			return errf("a crash adversary takes per_round/total, not graphs/schedule")
		}
		if a.PerRound < 0 || a.PerRound > n+1 {
			return errf("per_round=%d out of range [0, %d]", a.PerRound, n+1)
		}
		if a.Total != nil && *a.Total < 0 {
			return errf("total=%d must be nonnegative", *a.Total)
		}
		return nil
	case "graphs":
		if a.PerRound != 0 || a.Total != nil {
			return errf("a graphs adversary takes graphs/schedule, not per_round/total")
		}
		if len(a.Graphs) == 0 {
			return errf("a graphs adversary needs at least one graph")
		}
		if len(a.Graphs) > MaxGraphs {
			return errf("%d graphs exceeds the limit of %d", len(a.Graphs), MaxGraphs)
		}
		seen := make(map[string]int, len(a.Graphs))
		for gi, g := range a.Graphs {
			if err := g.validate(n); err != nil {
				return errf("graph %d: %v", gi, err)
			}
			enc := g.canonical()
			if prev, dup := seen[enc]; dup {
				return errf("graph %d duplicates graph %d", gi, prev)
			}
			seen[enc] = gi
		}
		for ri, allowed := range a.Schedule {
			if len(a.Schedule) != r {
				return errf("schedule has %d rounds, want %d", len(a.Schedule), r)
			}
			if len(allowed) == 0 {
				return errf("schedule round %d allows no graphs", ri)
			}
			seenIdx := make(map[int]bool, len(allowed))
			for _, gi := range allowed {
				if gi < 0 || gi >= len(a.Graphs) {
					return errf("schedule round %d references graph %d (have %d graphs)", ri, gi, len(a.Graphs))
				}
				if seenIdx[gi] {
					return errf("schedule round %d lists graph %d twice", ri, gi)
				}
				seenIdx[gi] = true
			}
		}
		return nil
	default:
		return errf("unknown adversary kind %q (want crash or graphs)", a.Kind)
	}
}

func (g Graph) validate(n int) error {
	if max := (n + 1) * n; len(g.Edges) > max {
		return errf("%d edges exceeds the %d possible over %d processes", len(g.Edges), max, n+1)
	}
	seen := make(map[[2]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] > n || e[1] < 0 || e[1] > n {
			return errf("edge [%d,%d] references a process outside [0, %d]", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return errf("edge [%d,%d] is a self-loop (self-delivery is implicit)", e[0], e[1])
		}
		if seen[e] {
			return errf("edge [%d,%d] appears twice", e[0], e[1])
		}
		seen[e] = true
	}
	return nil
}

// canonical renders the graph's edge set independently of listing order.
func (g Graph) canonical() string {
	edges := append([][2]int(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	var b strings.Builder
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d>%d", e[0], e[1])
	}
	return b.String()
}

// Compile validates the spec (Compile is safe on a hand-built Spec, not
// just Parse output) and compiles it to an instance. A preset-form spec
// compiles through the registry entry it names and yields that preset's
// exact canonical key, so an inline spec equivalent to a preset shares
// its store entries, job ids, and ring placement byte for byte.
func (s *Spec) Compile() (*Instance, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Name != "" {
		p := defaultParams()
		for k, v := range s.Params {
			p.setField(k, v)
		}
		return registry[s.Name].instance(p)
	}
	n := s.Processes - 1
	m := n
	if s.InputDim != nil {
		m = *s.InputDim
	}
	r := 1
	if s.Rounds != nil {
		r = *s.Rounds
	}
	return s.Adversary.instance(n, m, r)
}

// instance compiles a validated adversary over n+1 processes, input
// dimension m, r rounds. The retained doc is the normalized adversary
// form (explicit input_dim and rounds), which re-validates and recompiles
// to the same canonical key on any process — see Instance.SpecDoc.
func (a *Adversary) instance(n, m, r int) (*Instance, error) {
	mm, rr := m, r
	doc, err := json.Marshal(Spec{Processes: n + 1, InputDim: &mm, Rounds: &rr, Adversary: a})
	if err != nil {
		doc = nil
	}
	in := &Instance{
		Model:  SpecModel,
		N:      n,
		M:      m,
		R:      r,
		Params: ParamsJSON{N: n, M: m, R: r},
		doc:    doc,
	}
	switch a.Kind {
	case "crash":
		// Without total, the budget is per round only: over r rounds at
		// most r*per_round processes fail.
		p := syncmodel.Params{PerRound: a.PerRound, Total: r * a.PerRound}
		in.Key = fmt.Sprintf("model=spec|n=%d|m=%d|adv=crash:k=%d|r=%d", n, m, a.PerRound, r)
		if a.Total != nil {
			p.Total = *a.Total
			in.Key = fmt.Sprintf("model=spec|n=%d|m=%d|adv=crash:k=%d,f=%d|r=%d", n, m, a.PerRound, *a.Total, r)
		}
		if err := p.Validate(); err != nil {
			return nil, &Error{msg: err.Error()}
		}
		in.op = p.Operator()
		in.count = func(_ Params, dim int) int64 { return crashCount(dim, r, p.PerRound, p.Total, 1) }
	case "graphs":
		in.op = a.operator(n)
		in.Key = fmt.Sprintf("model=spec|n=%d|m=%d|adv=graphs:%d:%s|r=%d", n, m, len(a.Graphs), a.graphsHash(), r)
		total := a.insertions(r)
		in.count = func(Params, int) int64 { return total }
	default:
		return nil, errf("unknown adversary kind %q (want crash or graphs)", a.Kind)
	}
	return in, nil
}

// graphsHash fingerprints the graph set and schedule for the canonical
// key. Edge order within a graph is canonicalized away; graph list order
// is semantic (the schedule addresses graphs by index) and kept.
func (a *Adversary) graphsHash() string {
	var b strings.Builder
	for gi, g := range a.Graphs {
		fmt.Fprintf(&b, "g%d:%s;", gi, g.canonical())
	}
	for ri, allowed := range a.Schedule {
		sorted := append([]int(nil), allowed...)
		sort.Ints(sorted)
		fmt.Fprintf(&b, "s%d:%v;", ri, sorted)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// insertions is the facet-insertion count of an r-round graphs build
// over any input: one branch per allowed graph per round, one facet per
// branch (every option table is singleton), independent of how many
// processes participate.
func (a *Adversary) insertions(r int) int64 {
	total := int64(1)
	for ri := 0; ri < r; ri++ {
		per := int64(len(a.Graphs))
		if len(a.Schedule) > 0 {
			per = int64(len(a.Schedule[ri]))
		}
		total = pc.SatMul(total, per)
	}
	return total
}
