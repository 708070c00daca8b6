// Package modelspec is the model registry and spec-compilation layer:
// the one place a request's model — a preset name plus query parameters,
// or an inline JSON spec describing a per-round adversary — resolves to
// a canonical cache key, an admission price, and a roundop.Operator.
//
// Everything above it is model-agnostic. The serving tier, the job
// subsystem, and the cluster router all hand a query (and optionally a
// spec document) to this package and get back an Instance; none of them
// know which models exist. The paper's models (Section 7's synchronous
// and semisynchronous adversaries, Section 6's asynchronous one, IIS)
// register as presets in presets.go, and the spec dialect expresses the
// open-ended space beyond them: crash budgets and oblivious message
// adversaries given by explicit directed communication graphs.
package modelspec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/topology"
)

// Hard parameter ceilings shared by every model path — preset queries,
// preset-form specs, and adversary specs. They bound memory, not
// correctness: the real work bound is the serving tier's facet-budget
// admission check, which prices each compiled instance.
const (
	// MaxN caps the process-simplex dimension (n+1 processes).
	MaxN = 12
	// MaxRounds caps the round count.
	MaxRounds = 6
)

// Error marks an invalid model specification or parameter tuple; the
// serving tier maps it to HTTP 400.
type Error struct{ msg string }

func (e *Error) Error() string { return e.msg }

func errf(format string, args ...any) error {
	return &Error{msg: fmt.Sprintf(format, args...)}
}

// Params is the preset parameter tuple, under the names the query string
// uses. Fields a model does not consume are carried but ignored: they
// never reach its key, its response echo, or its operator.
type Params struct {
	N, M      int // n+1 processes in the system; input face dimension m
	F, K      int // total failure bound (async) / per-round bound (sync-like)
	C1, C2, D int // semisync timing
	R         int // rounds
}

// paramNames lists every preset parameter, in canonical key order.
var paramNames = []string{"n", "m", "f", "k", "c1", "c2", "d", "r"}

func defaultParams() Params {
	return Params{N: 2, M: -1, F: 1, K: 1, C1: 1, C2: 2, D: 2, R: 1}
}

func (p Params) field(name string) int {
	switch name {
	case "n":
		return p.N
	case "m":
		return p.M
	case "f":
		return p.F
	case "k":
		return p.K
	case "c1":
		return p.C1
	case "c2":
		return p.C2
	case "d":
		return p.D
	case "r":
		return p.R
	}
	return 0
}

func (p *Params) setField(name string, v int) bool {
	switch name {
	case "n":
		p.N = v
	case "m":
		p.M = v
	case "f":
		p.F = v
	case "k":
		p.K = v
	case "c1":
		p.C1 = v
	case "c2":
		p.C2 = v
	case "d":
		p.D = v
	case "r":
		p.R = v
	default:
		return false
	}
	return true
}

// ParamsJSON is the response echo of the effective model parameters.
type ParamsJSON struct {
	N  int `json:"n"`
	M  int `json:"m"`
	F  int `json:"f,omitempty"`
	K  int `json:"k,omitempty"`
	C1 int `json:"c1,omitempty"`
	C2 int `json:"c2,omitempty"`
	D  int `json:"d,omitempty"`
	R  int `json:"r"`
}

// Model is one registry entry: a named model family the service can
// build. Everything the serving tier used to switch on a model-name
// string for lives here as a closure — validation, the canonical key
// fields, the round operator, and the price.
type Model struct {
	// Name is the registry key, the query's model= value, and a
	// preset-form spec's "name".
	Name string
	// Fields names the parameters the model consumes beyond n, m, and r,
	// in canonical key order; they render into the cache key and the
	// response echo.
	Fields []string
	// Validate checks the model's own parameter constraints. The shared
	// bounds on n, m, and r are enforced by the registry before it runs.
	Validate func(p Params) error
	// Operator compiles the tuple to the round operator the shared engine
	// enumerates, shards, and checkpoints.
	Operator func(p Params) roundop.Operator
	// Count returns the exact facet insertions of the tuple's R-round
	// build over an input face of dimension dim, saturating at
	// math.MaxInt64, for 0 <= dim <= MaxN: what a fresh build's "facets"
	// counter ends at, and the one price admission reads. A count of 0
	// means the round complex is empty by the model's convention
	// (asyncmodel's dim < n-f), so nothing is built.
	Count func(p Params, dim int) int64
}

var registry = map[string]Model{}

// Register adds a model to the registry. It panics on a duplicate or
// incomplete entry: registration happens at init time from code, so a
// bad entry is a programming error, not an input.
func Register(m Model) {
	if m.Name == "" || m.Validate == nil || m.Operator == nil || m.Count == nil {
		panic("modelspec: Register needs Name, Validate, Operator, and Count")
	}
	if _, dup := registry[m.Name]; dup {
		panic("modelspec: duplicate model " + m.Name)
	}
	registry[m.Name] = m
}

// Names returns the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Instance is a validated, compiled model: the canonical cache key that
// feeds the content-addressed store, job dedup, and ring placement; the
// response echo; and the operator plus the model's count, the one price
// of a build. It is what every serving layer works with — the model
// switches that used to live there resolve here, once.
type Instance struct {
	// Model is the registry name, or SpecModel for adversary-form specs.
	Model string
	// Key is the canonical cache identity: equivalent requests share one
	// store entry, one job id, and one ring owner regardless of spelling.
	Key string
	// N, M, R are the resolved process-simplex dimension, input face
	// dimension, and round count.
	N, M, R int
	// Params echoes the effective parameters in responses.
	Params ParamsJSON

	op    roundop.Operator
	count func(p Params, dim int) int64 // the model's Count, read over p
	p     Params
	doc   []byte // spec document that recompiles to this instance
}

// SpecDoc returns a spec document (the inline-JSON dialect Parse accepts)
// that compiles back to this exact instance — same canonical Key, same
// operator, same shard plan. It is how a coordinator ships a model to
// remote shard workers: the document, not the compiled operator, crosses
// the wire, and the worker's own Parse/Compile re-derives an identical
// deterministic shard decomposition. Nil only if the instance was built
// outside the registry/spec paths.
func (in *Instance) SpecDoc() []byte { return in.doc }

// Operator returns the compiled round operator.
func (in *Instance) Operator() roundop.Operator { return in.op }

// EmptyFor reports whether the model's round complex over input is empty
// by convention (its count is 0: async with fewer than n-f+1
// participants), letting callers skip enumeration.
func (in *Instance) EmptyFor(input topology.Simplex) bool {
	return in.count(in.p, len(input)-1) == 0
}

// InsertionFloor returns the model's count over the m-face: the facet
// insertions of the instance's R-round build, exact and saturating.
func (in *Instance) InsertionFloor() int64 { return in.count(in.p, in.M) }

// Estimate returns the model's count over input: the facet insertions of
// an R-round build over it, exact and saturating, in a few arithmetic
// steps. The error is always nil; the signature is the one the bench
// module calls.
func (in *Instance) Estimate(input topology.Simplex) (int64, error) {
	return in.count(in.p, len(input)-1), nil
}

// Build constructs the R-round complex over input on the caller's
// goroutine. The int is unused; it keeps the signature the bench module
// calls.
func (in *Instance) Build(ctx context.Context, input topology.Simplex, _ int) (*pc.Result, error) {
	return in.BuildCkpt(ctx, input, 1, 0, nil)
}

// BuildCkpt is Build with shard-boundary checkpointing through ck (none
// when nil), flushing every flushEvery completed shards. The first int is
// unused, as in Build.
func (in *Instance) BuildCkpt(ctx context.Context, input topology.Simplex, _, flushEvery int, ck roundop.Checkpointer) (*pc.Result, error) {
	if in.EmptyFor(input) {
		return pc.NewResult(), nil
	}
	return roundop.Build(ctx, in.op, input, in.R, roundop.Options{Checkpoint: ck, FlushEvery: flushEvery})
}

// FromQuery resolves the preset query form (model=name&n=...&r=...) to a
// compiled instance — the parse path shared by the GET endpoints, job
// spec params, and cmd/connectivity flags.
func FromQuery(q url.Values) (*Instance, error) {
	name := q.Get("model")
	if name == "" {
		name = "async"
	}
	m, ok := registry[name]
	if !ok {
		return nil, errf("unknown model %q (want %s, or an inline spec)", name, strings.Join(Names(), ", "))
	}
	p := defaultParams()
	for _, f := range paramNames {
		raw := q.Get(f)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, errf("parameter %s=%q is not an integer", f, raw)
		}
		p.setField(f, v)
	}
	return m.instance(p)
}

// instance enforces the shared bounds, runs the model's own validation,
// and compiles the tuple.
func (m Model) instance(p Params) (*Instance, error) {
	if p.N < 0 || p.N > MaxN {
		return nil, errf("n=%d out of range [0, %d]", p.N, MaxN)
	}
	if p.M < 0 {
		p.M = p.N
	}
	if p.M > p.N {
		return nil, errf("m=%d exceeds n=%d", p.M, p.N)
	}
	if p.R < 0 || p.R > MaxRounds {
		return nil, errf("r=%d out of range [0, %d]", p.R, MaxRounds)
	}
	if err := m.Validate(p); err != nil {
		return nil, &Error{msg: err.Error()}
	}
	in := &Instance{
		Model:  m.Name,
		Key:    m.key(p),
		N:      p.N,
		M:      p.M,
		R:      p.R,
		Params: m.echo(p),
		op:     m.Operator(p),
		count:  m.Count,
		p:      p,
		doc:    m.specDoc(p),
	}
	return in, nil
}

// specDoc renders the preset-form spec document for a resolved tuple:
// exactly the fields the canonical key carries (n, resolved m, the
// model's own fields, r), so Parse+Compile of the document lands on the
// byte-identical key. json.Marshal sorts map keys, so the rendering is
// deterministic.
func (m Model) specDoc(p Params) []byte {
	params := map[string]int{"n": p.N, "m": p.M, "r": p.R}
	for _, f := range m.Fields {
		params[f] = p.field(f)
	}
	doc, err := json.Marshal(Spec{Name: m.Name, Params: params})
	if err != nil {
		return nil
	}
	return doc
}

// key renders the canonical cache identity of a preset tuple: a fixed
// field order containing exactly the fields the model consumes, so
// equivalent requests share one cache entry regardless of spelling. The
// rendering is byte-identical to the historical per-model keys.
func (m Model) key(p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s|n=%d|m=%d", m.Name, p.N, p.M)
	for _, f := range m.Fields {
		fmt.Fprintf(&b, "|%s=%d", f, p.field(f))
	}
	fmt.Fprintf(&b, "|r=%d", p.R)
	return b.String()
}

func (m Model) echo(p Params) ParamsJSON {
	out := ParamsJSON{N: p.N, M: p.M, R: p.R}
	for _, f := range m.Fields {
		switch f {
		case "f":
			out.F = p.F
		case "k":
			out.K = p.K
		case "c1":
			out.C1 = p.C1
		case "c2":
			out.C2 = p.C2
		case "d":
			out.D = p.D
		}
	}
	return out
}
