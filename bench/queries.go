package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pseudosphere/internal/modelspec"
)

// query is one generated request. GET queries carry everything in
// Params; POST queries carry an inline model spec in Model and the
// endpoint's other parameters in Params, the body shape the service's
// POST endpoints accept.
type query struct {
	Endpoint string // pseudosphere, rounds, connectivity, decision
	Params   map[string]string
	Model    json.RawMessage
}

// ident is the query's client-side identity: distinct queries are
// distinct requests.
func (q query) ident() string {
	if q.Model == nil {
		return "GET " + q.path()
	}
	body, _ := q.body()
	return "POST /v1/" + q.Endpoint + " " + string(body)
}

func (q query) path() string {
	vals := url.Values{}
	for k, v := range q.Params {
		vals.Set(k, v)
	}
	return "/v1/" + q.Endpoint + "?" + vals.Encode() // Encode sorts keys
}

func (q query) body() ([]byte, error) {
	return json.Marshal(struct {
		Model  json.RawMessage   `json:"model"`
		Params map[string]string `json:"params,omitempty"`
	}{q.Model, q.Params})
}

// request builds the HTTP request against base.
func (q query) request(ctx context.Context, base string) (*http.Request, error) {
	if q.Model == nil {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+q.path(), nil)
	}
	body, err := q.body()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/"+q.Endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// values returns Params as url.Values, the form modelspec.FromQuery reads.
func (q query) values() url.Values {
	vals := url.Values{}
	for k, v := range q.Params {
		vals.Set(k, v)
	}
	return vals
}

// instance resolves the query's model the way the service does: the
// inline spec when present, the preset query otherwise.
func (q query) instance() (*modelspec.Instance, error) {
	if q.Model != nil {
		spec, err := modelspec.Parse(q.Model)
		if err != nil {
			return nil, err
		}
		return spec.Compile()
	}
	return modelspec.FromQuery(q.values())
}

// labels is the value alphabet pseudosphere and decision queries draw
// from: large enough that the smallest template, two labels, has more
// distinct keys than the hit workloads give it.
var labels = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

// randValues draws k distinct labels, sorted (the service's canonical
// spelling, so two draws of one set are one key).
func randValues(rng *rand.Rand, k int) string {
	perm := rng.Perm(len(labels))[:k]
	sort.Ints(perm)
	parts := make([]string, k)
	for i, p := range perm {
		parts[i] = labels[p]
	}
	return strings.Join(parts, ",")
}

func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

// randPrime draws a prime below 2^20, the service's GF(p) modulus limit.
func randPrime(rng *rand.Rand) int {
	for {
		if p := 3 + rng.Intn(1<<20-3); isPrime(p) {
			return p
		}
	}
}

// randLimit draws a decision node limit. The limit is part of the
// decision key, so it makes repeated instances distinct keys; every
// instance the generators emit finishes far below the smallest draw.
func randLimit(rng *rand.Rand) string {
	return strconv.Itoa(5_000_000 + rng.Intn(15_000_000))
}

// presetDoc renders a preset-form inline spec.
func presetDoc(name string, params map[string]int) json.RawMessage {
	doc, _ := json.Marshal(map[string]any{"name": name, "params": params})
	return doc
}

// graphsDoc renders an adversary-form spec: processes processes, rounds
// rounds, and g distinct random directed communication graphs.
func graphsDoc(rng *rand.Rand, processes, rounds, g int) json.RawMessage {
	var all [][2]int
	for a := 0; a < processes; a++ {
		for b := 0; b < processes; b++ {
			if a != b {
				all = append(all, [2]int{a, b})
			}
		}
	}
	seen := map[uint64]bool{}
	type graph struct {
		Edges [][2]int `json:"edges"`
	}
	var graphs []graph
	for len(graphs) < g {
		mask := rng.Uint64() & (1<<len(all) - 1)
		if seen[mask] {
			continue
		}
		seen[mask] = true
		edges := [][2]int{}
		for i, e := range all {
			if mask&(1<<i) != 0 {
				edges = append(edges, e)
			}
		}
		graphs = append(graphs, graph{edges})
	}
	doc, _ := json.Marshal(map[string]any{
		"processes": processes,
		"rounds":    rounds,
		"adversary": map[string]any{"kind": "graphs", "graphs": graphs},
	})
	return doc
}

// hitKeys returns n distinct cheap queries drawn from seed: the warm
// workloads' key universe, in Zipf rank order (index 0 is hottest). Rank
// i is always a query of cheapTemplates[i mod 7], so every seed gives the
// hot ranks the same costs; drawing the template at random as well let the
// seed decide whether the hottest key was a GET or a graphs POST, which
// moved the routed median by 15% between seeds.
func hitKeys(seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]query, 0, n)
	for len(out) < n {
		q := cheapTemplates[len(out)%len(cheapTemplates)](rng)
		if id := q.ident(); !seen[id] {
			seen[id] = true
			out = append(out, q)
		}
	}
	return out
}

// keyStream draws Zipf(s)-ranked key indexes below nkeys from a seed:
// the same seed gives the same sequence of keys. It is safe for
// concurrent use; concurrent clients take the sequence's keys in turn.
type keyStream struct {
	mu   sync.Mutex
	zipf *rand.Zipf
}

func newKeyStream(seed int64, s float64, nkeys int) *keyStream {
	return &keyStream{zipf: rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), s, 1, uint64(nkeys-1))}
}

func (k *keyStream) next() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return int(k.zipf.Uint64())
}

// template makes one query of a fixed shape; the random source fills in
// only what makes the key distinct.
type template func(rng *rand.Rand) query

// The query templates. The ones under a millisecond are the warm
// workloads' keys (cheapTemplates); all of them, in sweepCycle's order,
// are the cold sweep. In-process costs are from a 2-core VM.
var (
	// ψ(S^2; 3 values), 27 facets: 0.2 ms.
	tPseudo2 template = func(rng *rand.Rand) query {
		return query{Endpoint: "pseudosphere", Params: map[string]string{"n": "2", "values": randValues(rng, 3)}}
	}
	// ψ(S^1; 2 values) without Betti numbers: 0.1 ms.
	tPseudo1 template = func(rng *rand.Rand) query {
		return query{Endpoint: "pseudosphere", Params: map[string]string{"n": "1", "values": randValues(rng, 2), "betti": "false"}}
	}
	// 3 processes, 2 rounds, 4 graphs (16 facets): 0.5 ms.
	tGraphsConn template = func(rng *rand.Rand) query {
		return query{Endpoint: "connectivity", Model: graphsDoc(rng, 3, 2, 4)}
	}
	// 3 processes, 1 round, 3 graphs: 0.2 ms.
	tGraphsRounds template = func(rng *rand.Rand) query {
		return query{Endpoint: "rounds", Model: graphsDoc(rng, 3, 1, 3)}
	}
	// 0.2 ms.
	tGFpSync template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "sync", "n", "2", "k", "1", "r", "1")
	}
	// The preset-form POST of a GET preset: 0.3 ms.
	tGFpCustomPost template = func(rng *rand.Rand) query {
		return query{
			Endpoint: "connectivity",
			Model:    presetDoc("custom", map[string]int{"n": 2, "k": 1, "r": 1}),
			Params:   map[string]string{"field": "gfp", "p": strconv.Itoa(randPrime(rng))},
		}
	}
	// 0.4 ms.
	tDecisionTiny template = func(rng *rand.Rand) query {
		return decisionQuery(rng, 3, "2", "model", "async", "n", "1", "f", "1", "r", "1")
	}
	// 75 facets: 1.8 ms.
	tGFpIIS template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "iis", "n", "3", "r", "1")
	}
	// 1.7 ms.
	tDecisionCustom template = func(rng *rand.Rand) query {
		return decisionQuery(rng, 2, "2", "model", "custom", "n", "2", "k", "1", "r", "1")
	}
	// A 732-bit search space: 15 ms.
	tDecisionSync template = func(rng *rand.Rand) query {
		return decisionQuery(rng, 3, "2", "model", "sync", "n", "2", "k", "1", "r", "2")
	}
	// 2,401 facets: 15 ms.
	tGFpAsync template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "async", "n", "3", "f", "2", "r", "1")
	}
	// 1,091 facets: 21 ms.
	tGFpSemisync3 template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "semisync", "n", "3", "k", "1", "c1", "1", "c2", "2", "d", "2", "r", "2")
	}
	// 23 ms.
	tDecisionAsync3 template = func(rng *rand.Rand) query {
		return decisionQuery(rng, 3, "2", "model", "async", "n", "2", "f", "2", "r", "1")
	}
	// 2,221 facets: 60 ms.
	tGFpSync4 template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "sync", "n", "4", "k", "1", "r", "2")
	}
	// 10,561 facets: 275 ms.
	tGFpSemisync4 template = func(rng *rand.Rand) query {
		return gfpQuery(rng, "model", "semisync", "n", "4", "k", "1", "c1", "1", "c2", "2", "d", "2", "r", "2")
	}
)

// cheapTemplates are the templates under a millisecond, GET and POST.
var cheapTemplates = []template{tPseudo2, tPseudo1, tGraphsConn, tGraphsRounds, tGFpSync, tGFpCustomPost, tDecisionTiny}

// sweepCycle is the cold sweep's query plan, cycled in order. Drawing
// whole queries at random moved the sweep's median 2x between seeds; with
// every cost fixed by the template, every run sees the same cost mix.
// The quantiles must not sit where two templates' costs meet, nor among
// the templates under 5 ms: their time is mostly per-request overhead,
// which a busy machine inflates by anything from 10% to 2x, reordering
// them from run to run. So nine slots cost under 5 ms, six are
// tGFpSemisync3 (the tightest template of 20-50 ms), and nine cost more:
// the median falls in the middle of tGFpSemisync3's samples (9/24 to 15/24
// of all) and moves with the machine's speed as a compute-bound query
// does. Only tGFpSemisync4 costs more than the two tGFpSync4 slots, so the
// 90th percentile falls inside tGFpSync4's samples (21/24 to 23/24), which
// lie 2x away from every other template's.
var sweepCycle = []template{
	tPseudo2, tGFpSemisync3, tDecisionSync, tGraphsConn, tGFpSemisync3, tGFpSync,
	tGFpAsync, tGFpSemisync4, tGFpCustomPost, tGFpSemisync3, tDecisionCustom, tGFpSync4,
	tGraphsRounds, tGFpSemisync3, tDecisionAsync3, tPseudo1, tGFpAsync, tDecisionTiny,
	tGFpSemisync3, tGFpIIS, tDecisionSync, tGFpSemisync3, tDecisionAsync3, tGFpSync4,
}

// gfpQuery is GF(p) connectivity of a preset at a random prime p.
func gfpQuery(rng *rand.Rand, kv ...string) query {
	p := map[string]string{"field": "gfp", "p": strconv.Itoa(randPrime(rng))}
	for i := 0; i < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	return query{Endpoint: "connectivity", Params: p}
}

// decisionQuery is an agree-set-agreement search over a preset with
// nvalues random input labels and a random node limit.
func decisionQuery(rng *rand.Rand, nvalues int, agree string, kv ...string) query {
	p := map[string]string{"agree": agree, "values": randValues(rng, nvalues), "limit": randLimit(rng)}
	for i := 0; i < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	return query{Endpoint: "decision", Params: p}
}

// sweep generates the cold sweep's query stream from a seed: sweepCycle
// in order, each query distinct from every earlier one.
type sweep struct {
	rng  *rand.Rand
	seen map[string]bool
	step int
}

func newSweep(seed int64) *sweep {
	return &sweep{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// next returns the next query of the cycle, distinct from every earlier
// one unless its template has run out of fresh draws (the smallest
// template has 2,016 keys; a run uses a few dozen).
func (s *sweep) next() query {
	tmpl := sweepCycle[s.step%len(sweepCycle)]
	s.step++
	for attempt := 0; ; attempt++ {
		q := tmpl(s.rng)
		if id := q.ident(); !s.seen[id] || attempt == 64 {
			s.seen[id] = true
			return q
		}
	}
}

// checkIndices picks k distinct indices of n responses, seeded.
func checkIndices(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rand.New(rand.NewSource(seed ^ 0xc4ec)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// String renders a query for error messages.
func (q query) String() string {
	if q.Model == nil {
		return q.path()
	}
	return fmt.Sprintf("POST /v1/%s model=%s params=%v", q.Endpoint, q.Model, q.Params)
}
