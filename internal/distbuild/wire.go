// Package distbuild distributes one round-complex construction across a
// fleet: the replica that owns the job runs a Coordinator over the
// build's deterministic roundop.ShardPlan and exposes the shard list as
// a claimable work queue, and every participating replica (the
// coordinator included) runs worker loops that lease contiguous shard
// index ranges, enumerate them through the same plan, and stream back
// the resulting sub-complexes as framed, interned facet batches.
//
// Leases carry deadlines. A worker that dies mid-range simply stops
// completing; its lease expires and the range returns to the pool, where
// the next claim — from any surviving worker — re-leases it. That is
// work stealing with crash tolerance: the build finishes as long as one
// worker (in practice the coordinator's own local loops) survives, and
// the merged complex is bit-for-bit the single-process build because
// shards partition the facet product and the complex is a set.
//
// The wire protocol is three internal POST endpoints:
//
//	/internal/shards/offer    coordinator -> peer: join this build
//	/internal/shards/claim    worker -> coordinator: lease a shard range
//	/internal/shards/complete worker -> coordinator: deliver a range
//
// Offers carry the model as a modelspec document plus the input simplex,
// never code or compiled state: the worker re-parses, re-prices against
// its own budget, and re-derives the identical shard plan. A completion
// is one store.EncodeFrame frame (magic, length, checksum), so a
// truncated or corrupted delivery is rejected whole. Its payload is a
// small binary header (a tag byte, the build id, the lease) and one pc
// record (pc.AppendRecord) over the worker's fresh result: its done list
// is the leased shards, and it extends 0 vertices and 0 entries, so it
// carries the vertex table and every simplex of the face-closed delta and
// the coordinator loads it with the closure-free bulk path. Frames a
// previous release wrote as JSON still decode. These endpoints are
// fleet-internal, like /internal/kv: replicas should listen on an
// internal interface.
package distbuild

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
)

// Endpoint paths, mounted by the serving tier on every dist-enabled
// replica.
const (
	OfferPath    = "/internal/shards/offer"
	ClaimPath    = "/internal/shards/claim"
	CompletePath = "/internal/shards/complete"
)

// MaxCompleteBody bounds one completion frame; it matches the cluster
// KV bound — far above any real shard batch, low enough that a
// misbehaving peer cannot stream gigabytes.
const MaxCompleteBody = 256 << 20

// WireVert is one interned vertex of an offer input or a completion
// delta: process id plus encoded view label.
type WireVert struct {
	P int    `json:"p"`
	L string `json:"l"`
}

// BuildOffer invites a peer to work on a build: the build id, the
// coordinator's base URL (where claims and completions go), the model as
// a spec document (modelspec.Instance.SpecDoc), and the input simplex.
type BuildOffer struct {
	Build       string          `json:"build"`
	Coordinator string          `json:"coordinator"`
	Model       json.RawMessage `json:"model"`
	Input       []WireVert      `json:"input"`
}

// InputSimplex decodes and validates the offer's input simplex.
func (o *BuildOffer) InputSimplex() (topology.Simplex, error) {
	vs := make([]topology.Vertex, len(o.Input))
	for i, v := range o.Input {
		vs[i] = topology.Vertex{P: v.P, Label: v.L}
	}
	return topology.NewSimplex(vs...)
}

// claimRequest asks the coordinator for a lease on a contiguous shard
// index range of the named build.
type claimRequest struct {
	Build  string `json:"build"`
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// claimResponse answers a claim: a lease over [Lo, Hi), or Done (the
// build has no shards left — stop), or Wait (everything is leased out;
// poll again, a lease may expire).
type claimResponse struct {
	Done  bool   `json:"done,omitempty"`
	Wait  bool   `json:"wait,omitempty"`
	Lease uint64 `json:"lease,omitempty"`
	Lo    int    `json:"lo,omitempty"`
	Hi    int    `json:"hi,omitempty"`
}

// tagFrame opens a completion payload; a previous release's JSON
// payloads open with '{'.
const tagFrame = 0x01

// legacyDelta is the JSON payload of a completion frame from a previous
// release: the lease, the shards it covered, and the sub-complex in pc's
// legacy delta encoding.
type legacyDelta struct {
	Build  string         `json:"build"`
	Lease  uint64         `json:"lease"`
	Shards []int          `json:"shards"`
	Verts  []pc.DeltaVert `json:"verts,omitempty"`
	Simps  [][]int32      `json:"simps,omitempty"`
}

// Delta is a decoded, validated completion.
type Delta struct {
	Build  string
	Lease  uint64
	Shards []int
	Result *pc.Result
}

// EncodeShardDelta frames a completed shard range for the wire: the
// header, then the record of all of delta, which must be the fresh result
// the range was run into (anything a ShardPlan.RunShard built from
// pc.NewResult is).
func EncodeShardDelta(build string, lease uint64, shards []int, delta *pc.Result) []byte {
	payload := []byte{tagFrame}
	payload = binary.AppendUvarint(payload, uint64(len(build)))
	payload = append(payload, build...)
	payload = binary.AppendUvarint(payload, lease)
	payload = pc.AppendRecord(payload, shards, delta, pc.Mark{})
	return store.EncodeFrame(payload)
}

// DecodeShardFrame decodes and fully validates one completion frame. The
// frame checksum, the header and then the record through
// pc.ApplyRecord (view labels, id ranges, chromatic rows, face closure)
// are all checked, so a corrupt or adversarial frame yields an error and
// never a half-valid result. This is the attacker-controlled surface of
// the protocol and the fuzz target. Shard indices are checked against the
// lease when the coordinator merges the delta.
func DecodeShardFrame(raw []byte) (*Delta, error) {
	if len(raw) > MaxCompleteBody {
		return nil, fmt.Errorf("distbuild: completion frame of %d bytes exceeds the %d limit", len(raw), MaxCompleteBody)
	}
	payload, ok := store.DecodeFrame(raw)
	if !ok {
		return nil, fmt.Errorf("distbuild: completion frame failed checksum validation")
	}
	if len(payload) > 0 && payload[0] == '{' {
		return decodeLegacyFrame(payload)
	}
	if len(payload) == 0 || payload[0] != tagFrame {
		return nil, fmt.Errorf("distbuild: completion payload has no frame tag")
	}
	rest := payload[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return nil, fmt.Errorf("distbuild: completion header is malformed")
	}
	build := string(rest[k : k+int(n)])
	rest = rest[k+int(n):]
	lease, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("distbuild: completion header is malformed")
	}
	res := pc.NewResult()
	shards, err := res.ApplyRecord(rest[k:], math.MaxInt32)
	if err != nil {
		return nil, fmt.Errorf("distbuild: completion delta: %w", err)
	}
	return checkDelta(&Delta{Build: build, Lease: lease, Shards: shards, Result: res})
}

// decodeLegacyFrame decodes a previous release's JSON completion payload.
func decodeLegacyFrame(payload []byte) (*Delta, error) {
	var sd legacyDelta
	if err := json.Unmarshal(payload, &sd); err != nil {
		return nil, fmt.Errorf("distbuild: completion payload: %w", err)
	}
	for _, i := range sd.Shards {
		if i < 0 {
			return nil, fmt.Errorf("distbuild: negative shard index %d", i)
		}
	}
	res, err := pc.DecodeDelta(sd.Verts, sd.Simps)
	if err != nil {
		return nil, fmt.Errorf("distbuild: completion delta: %w", err)
	}
	return checkDelta(&Delta{Build: sd.Build, Lease: sd.Lease, Shards: sd.Shards, Result: res})
}

// checkDelta rejects a completion that names no build or no shards.
func checkDelta(d *Delta) (*Delta, error) {
	if d.Build == "" || len(d.Shards) == 0 {
		return nil, fmt.Errorf("distbuild: completion names no build or no shards")
	}
	return d, nil
}
